package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
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
		cfg := DurabilityConfig{Dir: dir}
		c, err := NewDurable("Hiring", prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustSubmitAll(t, c, subs[:k])
		// Crash: no final sync, torn bytes on disk.
		if _, _, err := c.Crash(); err != nil {
			t.Fatal(err)
		}
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

// TestWALFailureRejectsAndRollsBack: a WAL write failure must look to the
// client exactly like a guard rejection — error returned, run unchanged,
// nothing published, no transition for a concurrent poller — and the
// coordinator must keep working afterwards, producing the same run the
// uninterrupted execution would have.
func TestWALFailureRejectsAndRollsBack(t *testing.T) {
	prog := workload.Hiring()
	fp := wal.NewFailpoints()
	dir := t.TempDir()
	c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir, Failpoints: fp})
	if err != nil {
		t.Fatal(err)
	}
	p := startPoller(c, "hr")
	if _, err := c.Submit("hr", "clear", nil); err != nil {
		t.Fatal(err)
	}

	fp.TornWrite(1, 5)
	seq, _, _ := c.SnapshotInfo()
	if _, err := c.Submit("hr", "clear", nil); err == nil {
		t.Fatal("submit over a failing WAL must be rejected")
	}
	if c.Len() != 1 {
		t.Fatalf("rolled-back run has %d events", c.Len())
	}
	if got, _, _ := c.SnapshotInfo(); got != seq {
		t.Fatalf("snapshot seq %d after the rejection, want %d: a rejected event must publish nothing", got, seq)
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
	// The poller saw index 1 only as the retry, never as the torn event.
	seen := p.stop(t)
	checkContiguous(t, seen, 2)
	checkFeed(t, c, "hr", seen)
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
	c, err := NewDurable("Staged", staged, DurabilityConfig{Dir: dir, Guards: map[string]int{"sue": 2}})
	if err != nil {
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
	if _, _, err := c.Crash(); err != nil {
		t.Fatal(err)
	}
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

// TestConfigGuardsOnlyGuardFreshRuns: Guards are installed before a run's
// first event or not at all. A recovered non-empty unguarded run stays
// unguarded, one that holds no event takes the config's guards, a
// recovered guarded run keeps its persisted budgets even when it holds no
// event, and a config naming an unknown peer or a budget below
// 1 is refused.
func TestConfigGuardsOnlyGuardFreshRuns(t *testing.T) {
	prog := workload.Hiring()
	open := func(dir string, guards map[string]int) *Coordinator {
		t.Helper()
		c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir, Guards: guards})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	started := t.TempDir()
	c := open(started, nil)
	if _, err := c.Submit("hr", "clear", nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c = open(started, map[string]int{"sue": 2})
	if g := c.Guards(); len(g) != 0 {
		t.Fatalf("recovered non-empty run took config guards %v", g)
	}
	c.Close()
	if _, err := os.Stat(filepath.Join(started, "snapshot.json")); !os.IsNotExist(err) {
		t.Fatalf("a run wrote snapshot.json (stat: %v)", err)
	}

	// A run that holds no record yet takes the guards: its header is
	// rewritten with them.
	empty := t.TempDir()
	open(empty, nil).Close()
	c = open(empty, map[string]int{"sue": 4})
	if g := c.Guards(); len(g) != 1 || g["sue"] != 4 {
		t.Fatalf("record-less unguarded run has guards %v, want the config's sue=4", g)
	}
	c.Close()

	guarded := t.TempDir()
	open(guarded, map[string]int{"sue": 2}).Close()
	c = open(guarded, map[string]int{"sue": 5, "hr": 1})
	if g := c.Guards(); len(g) != 1 || g["sue"] != 2 {
		t.Fatalf("recovered guarded run has guards %v, want its persisted sue=2", g)
	}
	c.Close()

	for _, bad := range []map[string]int{{"nobody": 2}, {"sue": 0}} {
		if _, err := NewDurable("Hiring", prog, DurabilityConfig{Guards: bad}); err == nil {
			t.Fatalf("guards %v accepted", bad)
		}
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
	c, err := NewDurable("Staged", staged, DurabilityConfig{Dir: t.TempDir(), Sync: wal.SyncAlways, Failpoints: fp,
		Guards: map[string]int{"sue": 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	budgets := map[schema.Peer]int{"sue": 3}
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
	// The log holds event 0, so forge the next record, checksum and all.
	f.WriteString(legacyLine(`{"seq":1,"event":{"rule":"no_such_rule","valuation":{}}`))
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
	ts, n, err := c.Transitions("sue", 0)
	if err != nil || len(ts) != 0 || n != 0 {
		t.Fatalf("transitions=%v len=%d err=%v", ts, n, err)
	}
	if _, err := c.Scenario("sue"); err != nil {
		t.Fatal(err)
	}
}

// TestGuardRejectionLeavesNoTrace asserts the rollback contract of
// Coordinator.rollbackTo: a rejected submission leaves the run length, the
// snapshot sequence, and every peer's explanation answers exactly as they
// were — nothing is published, so a waiter blocked at Len() stays blocked
// and a concurrent poller never observes the rejected event.
func TestGuardRejectionLeavesNoTrace(t *testing.T) {
	staged, err := design.Staged(workload.Hiring(), "sue")
	if err != nil {
		t.Fatal(err)
	}
	c := newCoordinator(t, "Staged", staged, DurabilityConfig{Guards: map[string]int{"sue": 2}})
	p := startPoller(c, "sue")
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
	wantSeq, _, _ := c.SnapshotInfo()
	wantState := captureState(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocked := startWaiters(c, ctx, 1, wantLen)
	published := c.snap.Load().next

	if _, err := c.Submit("hr", "hire", map[string]data.Value{"x": cand}); err == nil {
		t.Fatal("over-budget hire must be rejected by the guard")
	}

	if c.Len() != wantLen {
		t.Fatalf("Len %d, want %d", c.Len(), wantLen)
	}
	if seq, _, _ := c.SnapshotInfo(); seq != wantSeq {
		t.Fatalf("snapshot seq %d, want %d: a rejected event must publish nothing", seq, wantSeq)
	}
	select {
	case <-published:
		t.Fatal("the rejection woke the waiters blocked at Len()")
	default:
	}
	cancel()
	if r := collect(t, blocked, 1)[0]; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("waiter blocked at Len() across the rejection returned (%d, %v), want only its cancellation", r.n, r.err)
	}
	checkFeed(t, c, "sue", p.stop(t))
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

// TestRecoveryRetainsNoRecords: recovery replays each record as the log
// is read, and of the records only the keyed ones' (key, index) pairs
// outlive the scan, for the idempotency window.
func TestRecoveryRetainsNoRecords(t *testing.T) {
	prog := workload.Hiring()
	dir := t.TempDir()
	cfg := DurabilityConfig{Dir: dir}
	c, err := NewDurable("Hiring", prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		key := ""
		if i%3 == 0 {
			key = fmt.Sprintf("k%d", i)
		}
		if _, err := c.SubmitIdemCtx(context.Background(), "hr", "clear", nil, key); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Close, so recovery replays all 10 records.
	if _, _, err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	rc := &Coordinator{prog: prog, run: program.NewRun(prog)}
	rp := &replayer{c: rc, budgets: map[schema.Peer]int{}}
	log, err := wal.Open(dir, wal.Header{}, wal.Options{}, rp)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if rc.run.Len() != 10 {
		t.Fatalf("replayed %d events, want 10", rc.run.Len())
	}
	want := []wal.IdemEntry{{Key: "k0", Index: 0}, {Key: "k3", Index: 3}, {Key: "k6", Index: 6}, {Key: "k9", Index: 9}}
	if !slices.Equal(rp.keyed, want) {
		t.Fatalf("replay kept %v, want the keyed pairs %v", rp.keyed, want)
	}
}

// TestLegacySnapshotDirRecovers: a data dir written by a version that
// snapshotted run prefixes upgrades to a dir that recovers unchanged.
// testdata/legacy-snapshot holds a guard (sue=3), a 2-event snapshot whose
// idempotency window alone holds the key "snap-only", a leftover log
// record the snapshot covers (seq 1) and one tail record (seq 2).
// legacy-snapshot-trace.json is the /trace body that version served after
// recovering the dir, and the continuation below — indices and the
// guard's verdict — is what it answered next.
func TestLegacySnapshotDirRecovers(t *testing.T) {
	dir, orig := copyDir(t, filepath.Join("testdata", "legacy-snapshot"))
	upgrade(t, dir, orig)
	prog := workload.Hiring()
	c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	Handler(c).ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	want, err := os.ReadFile(filepath.Join("testdata", "legacy-snapshot-trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("/trace differs from the recorded body:\n got: %s\nwant: %s", rec.Body.Bytes(), want)
	}
	if g := c.Guards(); len(g) != 1 || g["sue"] != 3 {
		t.Fatalf("recovered guards %v, want sue=3", g)
	}
	ctx := context.Background()
	res, err := c.SubmitIdemCtx(ctx, "hr", "clear", nil, "snap-only")
	if err != nil || res.Index != 0 || c.Len() != 3 {
		t.Fatalf("retry of the snapshot-only key: res=%+v err=%v len=%d, want index 0 and no append", res, err, c.Len())
	}
	x := func(v string) map[string]data.Value { return map[string]data.Value{"x": data.Value(v)} }
	for i, s := range []struct {
		peer schema.Peer
		rule string
		x    string
	}{{"cfo", "cfo_ok", "ν2"}, {"ceo", "approve", "ν1"}, {"ceo", "approve", "ν2"}, {"hr", "hire", "ν1"}} {
		res, err := c.Submit(s.peer, s.rule, x(s.x))
		if err != nil || res.Index != 3+i {
			t.Fatalf("%s(%s): res=%+v err=%v, want index %d", s.rule, s.x, res, err, 3+i)
		}
	}
	const verdict = "server: rejected by the transparency guard for sue: uses invisible fact Approved(ν2) from an earlier stage"
	if _, err := c.Submit("hr", "hire", x("ν2")); err == nil || err.Error() != verdict {
		t.Fatalf("hire(ν2) = %v, want the recorded guard rejection %q", err, verdict)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The legacy files are history: both are kept as they were.
	for name, b := range orig {
		if cur, err := os.ReadFile(filepath.Join(dir, name+".legacy")); err != nil || !bytes.Equal(cur, b) {
			t.Fatalf("%s.legacy was rewritten", name)
		}
	}
	rc, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if res, err := rc.SubmitIdemCtx(ctx, "hr", "clear", nil, "snap-only"); err != nil || res.Index != 0 || rc.Len() != 7 {
		t.Fatalf("after a second recovery: res=%+v err=%v len=%d, want index 0 of 7 events", res, err, rc.Len())
	}
}

// TestIdemWindowSurvivesRecovery: recovery rebuilds exactly the last
// IdemWindow keys from the WAL records. Each of them replays its original
// result without appending; an older key has left the window and executes
// as a new submission.
func TestIdemWindowSurvivesRecovery(t *testing.T) {
	prog := workload.Hiring()
	dir := t.TempDir()
	cfg := DurabilityConfig{Dir: dir, IdemWindow: 4}
	c, err := NewDurable("Hiring", prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	var orig []*SubmitResult
	for i := 0; i < 10; i++ {
		res, err := c.SubmitIdemCtx(ctx, "hr", "clear", nil, key(i))
		if err != nil || res.Index != i {
			t.Fatalf("submit %d: res=%+v err=%v", i, res, err)
		}
		orig = append(orig, res)
	}
	durable, _, err := c.Crash()
	if err != nil {
		t.Fatal(err)
	}
	// Cut the log back to its durable offset, then leave a torn record, as a
	// kill mid-append would.
	if err := os.Truncate(c.WALPath(), durable); err != nil {
		t.Fatal(err)
	}
	appendGarbage(t, dir)

	rc, err := NewDurable("Hiring", prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if got := len(rc.idemOrder); got != 4 {
		t.Fatalf("recovered window holds %d keys, want 4", got)
	}
	for i := 6; i < 10; i++ {
		res, err := rc.SubmitIdemCtx(ctx, "hr", "clear", nil, key(i))
		if err != nil || res.Index != i || strings.Join(res.Updates, ",") != strings.Join(orig[i].Updates, ",") {
			t.Fatalf("retry of %s: res=%+v err=%v, want %+v", key(i), res, err, orig[i])
		}
		if rc.Len() != 10 {
			t.Fatalf("retry of %s appended: len=%d", key(i), rc.Len())
		}
	}
	res, err := rc.SubmitIdemCtx(ctx, "hr", "clear", nil, key(5))
	if err != nil || res.Index != 10 || rc.Len() != 11 {
		t.Fatalf("key %s outside the window: res=%+v err=%v len=%d, want a new event at 10", key(5), res, err, rc.Len())
	}
}

// TestDataDirIsAppendOnly is the exact gate that the WAL is the run's only
// record: across n events → Close → reopen → n more → Close, the data dir
// of an unguarded run holds nothing but wal.log, which is never replaced,
// rewritten or truncated — each earlier byte stays an unchanged prefix —
// and the bytes on disk after 2n events are at most 2.1× those after n.
// SnapshotEvery is set to pin that the deprecated field is inert.
func TestDataDirIsAppendOnly(t *testing.T) {
	prog := workload.Hiring()
	const n = 24
	subs := randomWorkload(t, prog, 5, 2*n)
	dir := t.TempDir()
	cfg := DurabilityConfig{Dir: dir, SnapshotEvery: 8}
	var prevInfo os.FileInfo
	var prev []byte
	check := func(step string) int {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "wal.log" {
			t.Fatalf("%s: data dir holds %v, want only wal.log", step, entries)
		}
		path := filepath.Join(dir, "wal.log")
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if prevInfo != nil && !os.SameFile(prevInfo, info) {
			t.Fatalf("%s: wal.log was replaced", step)
		}
		if !bytes.HasPrefix(cur, prev) {
			t.Fatalf("%s: wal.log was rewritten or truncated (%d bytes, %d before)", step, len(cur), len(prev))
		}
		prevInfo, prev = info, cur
		return len(cur)
	}
	submitChecked := func(c *Coordinator, subs []submission, from int) {
		t.Helper()
		for i, s := range subs {
			if _, err := c.Submit(s.peer, s.rule, s.bindings); err != nil {
				t.Fatalf("event %d: %v", from+i+1, err)
			}
			check(fmt.Sprintf("event %d", from+i+1))
		}
	}

	c, err := NewDurable("Hiring", prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("open")
	submitChecked(c, subs[:n], 0)
	state := captureState(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(subs[n].peer, subs[n].rule, subs[n].bindings); err == nil {
		t.Fatal("submit after Close must be rejected")
	}
	if err := c.Ready(); err == nil {
		t.Fatal("closed coordinator must not be ready")
	}
	atN := check("close")

	rc, err := NewDurable("Hiring", prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("reopen")
	if got := captureState(t, rc); got != state {
		t.Fatalf("state diverged across Close and reopen:\n got: %s\nwant: %s", got, state)
	}
	submitChecked(rc, subs[n:], n)
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	at2N := check("second close")
	if float64(at2N) > 2.1*float64(atN) {
		t.Fatalf("%d bytes on disk after %d events, %d after %d: more than 2.1×", at2N, 2*n, atN, n)
	}
}
