package server

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/design"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/wal"
	"collabwf/internal/workload"
)

// submission is one recorded call to the public Submit API.
type submission struct {
	peer     schema.Peer
	rule     string
	bindings map[string]data.Value
}

// randomWorkload derives a deterministic pseudo-random feasible submission
// sequence by walking a shadow run of the program.
func randomWorkload(t *testing.T, p *program.Program, seed int64, steps int) []submission {
	t.Helper()
	r := program.NewRun(p)
	rng := rand.New(rand.NewSource(seed))
	var subs []submission
	for len(subs) < steps {
		cands := r.Candidates(8)
		if len(cands) == 0 {
			break
		}
		c := cands[rng.Intn(len(cands))]
		bind := make(map[string]data.Value, len(c.Val))
		for k, v := range c.Val {
			bind[k] = v
		}
		if _, err := r.Fire(c); err != nil {
			continue
		}
		subs = append(subs, submission{peer: c.Rule.Peer, rule: c.Rule.Name, bindings: bind})
	}
	if len(subs) < steps {
		t.Fatalf("workload exhausted after %d steps", len(subs))
	}
	return subs
}

// captureState fingerprints everything the ISSUE's acceptance criterion
// cares about: the run (trace), every peer's view, and every peer's
// minimal scenario.
func captureState(t *testing.T, c *Coordinator) string {
	t.Helper()
	var b strings.Builder
	if err := c.Trace().Write(&b); err != nil {
		t.Fatal(err)
	}
	for _, p := range c.prog.Peers() {
		v, err := c.View(p)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := c.Scenario(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s view=%s scenario=%v\n", p, v, sc)
	}
	return b.String()
}

func mustSubmitAll(t *testing.T, c *Coordinator, subs []submission) {
	t.Helper()
	for i, s := range subs {
		if _, err := c.Submit(s.peer, s.rule, s.bindings); err != nil {
			t.Fatalf("submission %d (%s/%s): %v", i, s.peer, s.rule, err)
		}
	}
}

// appendGarbage simulates a crash mid-append: a torn, non-JSON record
// fragment at the end of the WAL.
func appendGarbage(t *testing.T, dir string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":999,"event":{"ru`); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestCrashRecoveryAfterEveryEvent is the crash-recovery property test of
// the acceptance criteria: for a random workload, kill the server after
// every accepted event (leaving a torn trailing record behind, as a real
// crash would), recover, finish the workload, and require the final run,
// views and minimal scenarios to be identical to the uninterrupted run's.
func TestCrashRecoveryAfterEveryEvent(t *testing.T) {
	prog := workload.Hiring()
	subs := randomWorkload(t, prog, 42, 10)

	ref, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmitAll(t, ref, subs)
	want := captureState(t, ref)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	for k := 1; k <= len(subs); k++ {
		dir := t.TempDir()
		cfg := DurabilityConfig{Dir: dir, SnapshotEvery: 3}
		c, err := NewDurable("Hiring", prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustSubmitAll(t, c, subs[:k])
		// Crash: no Close, no final snapshot, torn bytes on disk.
		appendGarbage(t, dir)
		rc, err := NewDurable("Hiring", prog, cfg)
		if err != nil {
			t.Fatalf("crash after event %d: %v", k, err)
		}
		if rc.Len() != k {
			t.Fatalf("crash after event %d: recovered %d events", k, rc.Len())
		}
		mustSubmitAll(t, rc, subs[k:])
		if got := captureState(t, rc); got != want {
			t.Fatalf("crash after event %d: state diverged:\n got: %s\nwant: %s", k, got, want)
		}
		if err := rc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverAfterCloseUsesSnapshotOnly checks the clean-shutdown path: a
// Close writes a final snapshot, and recovery from it restores the run
// without replaying any WAL tail.
func TestRecoverAfterCloseUsesSnapshotOnly(t *testing.T) {
	prog := workload.Hiring()
	subs := randomWorkload(t, prog, 7, 6)
	dir := t.TempDir()
	c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmitAll(t, c, subs)
	want := captureState(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(subs[0].peer, subs[0].rule, subs[0].bindings); err == nil {
		t.Fatal("submit after Close must be rejected")
	}
	if err := c.Ready(); err == nil {
		t.Fatal("closed coordinator must not be ready")
	}

	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, tail := l.TakeRecovered()
	if snap == nil || snap.Len != len(subs) {
		t.Fatalf("final snapshot=%+v", snap)
	}
	if len(tail) != 0 {
		t.Fatalf("WAL tail has %d records after a final snapshot", len(tail))
	}
	l.Close()

	rc, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if got := captureState(t, rc); got != want {
		t.Fatalf("state diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestWALFailureRejectsAndRollsBack: a WAL write failure must look to the
// client exactly like a guard rejection — error returned, run unchanged,
// no notification — and the coordinator must keep working afterwards,
// producing the same run the uninterrupted execution would have.
func TestWALFailureRejectsAndRollsBack(t *testing.T) {
	prog := workload.Hiring()
	fp := wal.NewFailpoints()
	dir := t.TempDir()
	c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir, Failpoints: fp})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := c.Subscribe("hr", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if _, err := c.Submit("hr", "clear", nil); err != nil {
		t.Fatal(err)
	}
	<-ch

	fp.TornWrite(1, 5)
	if _, err := c.Submit("hr", "clear", nil); err == nil {
		t.Fatal("submit over a failing WAL must be rejected")
	}
	if c.Len() != 1 {
		t.Fatalf("rolled-back run has %d events", c.Len())
	}
	if len(ch) != 0 {
		t.Fatal("rejected event must not notify")
	}
	if err := c.Ready(); err != nil {
		t.Fatalf("repaired WAL must stay ready: %v", err)
	}

	// The retry succeeds and lands durably.
	res, err := c.Submit("hr", "clear", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != 1 {
		t.Fatalf("retry landed at %d", res.Index)
	}
	want := captureState(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	rc, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if got := captureState(t, rc); got != want {
		t.Fatalf("state diverged after torn write:\n got: %s\nwant: %s", got, want)
	}
}

// TestGuardPersistedAcrossRecovery: guards are part of the durable state;
// a recovered coordinator keeps rejecting what the original would have.
func TestGuardPersistedAcrossRecovery(t *testing.T) {
	staged, err := design.Staged(workload.Hiring(), "sue")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c, err := NewDurable("Staged", staged, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Guard("sue", 2); err != nil {
		t.Fatal(err)
	}
	mustSubmit := func(c *Coordinator, peer schema.Peer, rule string, bind map[string]data.Value) *SubmitResult {
		t.Helper()
		res, err := c.Submit(peer, rule, bind)
		if err != nil {
			t.Fatalf("%s: %v", rule, err)
		}
		return res
	}
	mustSubmit(c, "hr", "stage_refresh_hr", nil)
	res := mustSubmit(c, "hr", "clear", nil)
	cand := data.Value(strings.TrimSuffix(strings.TrimPrefix(res.Updates[0], "+Cleared("), ")"))
	mustSubmit(c, "cfo", "stage_refresh_cfo", nil)

	// Crash without Close; recover and continue.
	rc, err := NewDurable("Staged", staged, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if rc.Len() != 3 {
		t.Fatalf("recovered %d events", rc.Len())
	}
	mustSubmit(rc, "cfo", "cfo_ok", map[string]data.Value{"x": cand})
	mustSubmit(rc, "ceo", "approve", map[string]data.Value{"x": cand})
	before := rc.Len()
	if _, err := rc.Submit("hr", "hire", map[string]data.Value{"x": cand}); err == nil {
		t.Fatal("recovered coordinator must still enforce the guard")
	}
	if rc.Len() != before {
		t.Fatal("rejected event must not remain in the run")
	}
}

// TestGuardRewindsAfterFailedGroupSync: a failed group fsync drops an event
// the guard had admitted — a clear that closes sue's stage — and the stall
// rollback rewinds the guard with the run. Every later submission gets the
// verdict of a fresh guard over the accepted prefix: the hire the dropped
// clear would have made cross-stage goes through.
func TestGuardRewindsAfterFailedGroupSync(t *testing.T) {
	staged, err := design.Staged(workload.Hiring(), "sue")
	if err != nil {
		t.Fatal(err)
	}
	fp := wal.NewFailpoints()
	c, err := NewDurable("Staged", staged, DurabilityConfig{Dir: t.TempDir(), Sync: wal.SyncAlways, Failpoints: fp})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	budgets := map[schema.Peer]int{"sue": 3}
	if err := c.Guard("sue", 3); err != nil {
		t.Fatal(err)
	}
	mustSubmit := func(peer schema.Peer, rule string, bind map[string]data.Value) *SubmitResult {
		t.Helper()
		res, err := c.Submit(peer, rule, bind)
		if err != nil {
			t.Fatalf("%s: %v", rule, err)
		}
		return res
	}
	mustSubmit("hr", "stage_refresh_hr", nil)
	res := mustSubmit("hr", "clear", nil)
	x := map[string]data.Value{"x": data.Value(strings.TrimSuffix(strings.TrimPrefix(res.Updates[0], "+Cleared("), ")"))}
	mustSubmit("cfo", "stage_refresh_cfo", nil)
	mustSubmit("cfo", "cfo_ok", x)
	mustSubmit("ceo", "approve", x)
	const accepted = 5
	fp.FailNextSync(errors.New("EIO"))
	if _, err := c.Submit("hr", "clear", nil); err == nil {
		t.Fatal("a clear whose fsync failed must be rejected")
	}
	if c.Len() != accepted {
		t.Fatalf("Len() = %d after the failed sync, want %d", c.Len(), accepted)
	}

	later := []submission{
		{"hr", "hire", x},
		{"hr", "hire", x},
		{"cfo", "stage_refresh_cfo", nil},
		{"cfo", "cfo_ok", x},
		{"ceo", "approve", x},
		{"hr", "clear", nil},
		{"hr", "stage_refresh_hr", nil},
		{"ceo", "approve", x},
	}
	for k, s := range later {
		ref, err := c.Trace().Replay(staged)
		if err != nil {
			t.Fatal(err)
		}
		g := design.NewGuard(ref, budgets)
		wantOK := false
		var wantReason string
		if _, ferr := ref.FireRule(s.rule, s.bindings); ferr == nil {
			_, wantReason, wantOK = g.Check()
		}
		_, err = c.Submit(s.peer, s.rule, s.bindings)
		if (err == nil) != wantOK || (wantReason != "" && !strings.Contains(fmt.Sprint(err), wantReason)) {
			t.Fatalf("submission %d (%s): coordinator says %v, a fresh guard admits=%v (%s)", k, s.rule, err, wantOK, wantReason)
		}
		if k == 0 && err != nil {
			t.Fatalf("the hire in the still-open stage must be admitted: %v", err)
		}
	}
	final, err := c.Trace().Replay(staged)
	if err != nil {
		t.Fatal(err)
	}
	if vs := design.CheckRun(final, "sue", 3); len(vs) != 0 {
		t.Fatalf("guarded run has violations: %v", vs)
	}
}

// TestRecoverRejectsTamperedLog: a WAL record that fails the run
// conditions (here: an unknown rule) aborts recovery instead of silently
// diverging.
func TestRecoverRejectsTamperedLog(t *testing.T) {
	prog := workload.Hiring()
	dir := t.TempDir()
	c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("hr", "clear", nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot covers event 0, so forge the next record.
	fmt.Fprintln(f, `{"seq":1,"event":{"rule":"no_such_rule","valuation":{}}}`)
	f.Close()
	if _, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir}); err == nil {
		t.Fatal("tampered WAL must be rejected")
	}
}

// TestEmptyRunViewAndTransitions pins the empty-run behavior: before any
// submission, View answers with the initial-instance view (ViewAt −1) and
// Transitions with an empty list — no panic, no error.
func TestEmptyRunViewAndTransitions(t *testing.T) {
	c := New("Hiring", workload.Hiring())
	v, err := c.View("sue")
	if err != nil {
		t.Fatal(err)
	}
	if v != "∅" {
		t.Fatalf("empty-run view = %q, want the initial instance's", v)
	}
	ts, err := c.Transitions("sue", 0)
	if err != nil || len(ts) != 0 {
		t.Fatalf("transitions=%v err=%v", ts, err)
	}
	if _, err := c.Scenario("sue"); err != nil {
		t.Fatal(err)
	}
}

// TestGuardRejectionLeavesNoTrace asserts the rollback contract of
// Coordinator.rollbackTo: a rejected submission leaves the run length,
// every subscriber channel, the dropped counter, and every peer's
// explanation answers exactly as they were — rejected events never notify.
func TestGuardRejectionLeavesNoTrace(t *testing.T) {
	staged, err := design.Staged(workload.Hiring(), "sue")
	if err != nil {
		t.Fatal(err)
	}
	c := New("Staged", staged)
	if err := c.Guard("sue", 2); err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := c.Subscribe("sue", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	mustSubmit := func(peer schema.Peer, rule string, bind map[string]data.Value) *SubmitResult {
		t.Helper()
		res, err := c.Submit(peer, rule, bind)
		if err != nil {
			t.Fatalf("%s: %v", rule, err)
		}
		return res
	}
	mustSubmit("hr", "stage_refresh_hr", nil)
	res := mustSubmit("hr", "clear", nil)
	cand := data.Value(strings.TrimSuffix(strings.TrimPrefix(res.Updates[0], "+Cleared("), ")"))
	mustSubmit("cfo", "stage_refresh_cfo", nil)
	mustSubmit("cfo", "cfo_ok", map[string]data.Value{"x": cand})
	mustSubmit("ceo", "approve", map[string]data.Value{"x": cand})

	// Materialize explainer state for several peers, then fingerprint.
	for _, p := range []schema.Peer{"sue", "hr", "ceo"} {
		if _, err := c.Explain(p); err != nil {
			t.Fatal(err)
		}
	}
	wantLen := c.Len()
	wantDropped := c.Dropped()
	wantQueued := len(ch)
	wantState := captureState(t, c)

	if _, err := c.Submit("hr", "hire", map[string]data.Value{"x": cand}); err == nil {
		t.Fatal("over-budget hire must be rejected by the guard")
	}

	if c.Len() != wantLen {
		t.Fatalf("Len %d, want %d", c.Len(), wantLen)
	}
	if c.Dropped() != wantDropped {
		t.Fatalf("Dropped %d, want %d", c.Dropped(), wantDropped)
	}
	if len(ch) != wantQueued {
		t.Fatalf("subscriber queue %d, want %d: rejected events must not notify", len(ch), wantQueued)
	}
	if got := captureState(t, c); got != wantState {
		t.Fatalf("explanations changed across a rejection:\n got: %s\nwant: %s", got, wantState)
	}
	// And the coordinator still works.
	for _, p := range []schema.Peer{"sue", "hr", "ceo"} {
		if _, err := c.Explain(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotKeepsTailShort: with automatic snapshots, recovery replays
// only a short WAL tail, and forcing a snapshot empties it.
func TestSnapshotKeepsTailShort(t *testing.T) {
	prog := workload.Hiring()
	dir := t.TempDir()
	c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Submit("hr", "clear", nil); err != nil {
			t.Fatal(err)
		}
	}
	// 10 events, snapshots at 4 and 8: tail must hold events 8 and 9 only.
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, tail := l.TakeRecovered()
	l.Close()
	if snap == nil || snap.Len != 8 {
		t.Fatalf("snapshot=%+v", snap)
	}
	if len(tail) != 2 || tail[0].Seq != 8 {
		t.Fatalf("tail=%+v", tail)
	}
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	l, err = wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, tail = l.TakeRecovered()
	l.Close()
	if snap == nil || snap.Len != 10 || len(tail) != 0 {
		t.Fatalf("after forced snapshot: snap=%+v tail=%+v", snap, tail)
	}
	c.Close()
}

// TestRecoveryRetainsNoRecords: recovery hands the decoded snapshot and WAL
// tail over to the replay, and the log keeps neither once NewDurable
// returns.
func TestRecoveryRetainsNoRecords(t *testing.T) {
	prog := workload.Hiring()
	dir := t.TempDir()
	cfg := DurabilityConfig{Dir: dir, SnapshotEvery: 4}
	c, err := NewDurable("Hiring", prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Submit("hr", "clear", nil); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Close, so recovery reads the snapshot at 8 and a 2-record tail.
	rc, err := NewDurable("Hiring", prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if rc.Len() != 10 {
		t.Fatalf("recovered %d events, want 10", rc.Len())
	}
	if snap, tail := rc.log.TakeRecovered(); snap != nil || tail != nil {
		t.Fatalf("the log still holds a snapshot (%v) and %d tail records after recovery", snap != nil, len(tail))
	}
}
