package server

import (
	"reflect"
	"testing"
	"time"

	"collabwf/internal/core"
	"collabwf/internal/obs"
	"collabwf/internal/schema"
	"collabwf/internal/wal"
	"collabwf/internal/workload"
)

// TestReadsLockFreeWhileMutexHeld is the structural proof of the lock-free
// read path: every read operation completes while the coordinator mutex is
// held by someone else. Before the snapshot path, each of these calls would
// deadlock here (View et al. took c.mu).
func TestReadsLockFreeWhileMutexHeld(t *testing.T) {
	prog := workload.Hiring()
	c := New("Hiring", prog)
	for _, s := range randomWorkload(t, prog, 5, 10) {
		if _, err := c.Submit(s.peer, s.rule, s.bindings); err != nil {
			t.Fatal(err)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, peer := range prog.Peers() {
			if _, err := c.View(peer); err != nil {
				t.Error(err)
			}
			if _, err := c.Explain(peer); err != nil {
				t.Error(err)
			}
			if _, err := c.Scenario(peer); err != nil {
				t.Error(err)
			}
			if _, _, err := c.Transitions(peer, 0); err != nil {
				t.Error(err)
			}
		}
		if c.Trace() == nil {
			t.Error("nil trace")
		}
		if c.Len() == 0 {
			t.Error("Len() = 0 on a non-empty run")
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("reads blocked on the coordinator mutex")
	}
}

// TestSnapshotReadsMatchReplay pins snapshot serving to an independent
// oracle: at several prefix lengths, the empty run included, every peer's
// View, Explain, Scenario and Transitions answers (the latter at every from
// cursor) must equal what a from-scratch replay of the served trace
// computes with the program run, core.NewExplainer and schema.ViewOf — no
// coordinator state involved.
func TestSnapshotReadsMatchReplay(t *testing.T) {
	prog := workload.Hiring()
	c := New("Hiring", prog)
	compareWithReplay(t, c)
	subs := randomWorkload(t, prog, 11, 12)
	for i, s := range subs {
		if _, err := c.Submit(s.peer, s.rule, s.bindings); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			compareWithReplay(t, c)
		}
	}
	compareWithReplay(t, c)
}

func compareWithReplay(t *testing.T, c *Coordinator) {
	t.Helper()
	run, err := c.Trace().Replay(c.prog)
	if err != nil {
		t.Fatalf("replaying the served trace: %v", err)
	}
	n := run.Len()
	if got := c.Len(); got != n {
		t.Fatalf("Len() = %d, served trace has %d events", got, n)
	}
	viewAfter := func(i int, peer schema.Peer) string {
		return schema.ViewOf(run.InstanceAt(i), c.prog.Schema, peer).String()
	}
	for _, peer := range c.prog.Peers() {
		ex := core.NewExplainer(run, peer)
		var wantTrans []Notification
		for _, idx := range run.VisibleEvents(peer) {
			e := run.Event(idx)
			want := Notification{Index: idx, Omega: e.Peer() != peer, View: viewAfter(idx, peer)}
			if !want.Omega {
				want.Rule = e.Rule.Name
			}
			for _, j := range ex.ExplainEvent(idx) {
				if j != idx {
					want.Because = append(want.Because, j)
				}
			}
			wantTrans = append(wantTrans, want)
		}

		v, err := c.View(peer)
		if err != nil {
			t.Fatal(err)
		}
		if want := viewAfter(n-1, peer); v != want {
			t.Fatalf("len %d, %s: View = %q, replay %q", n, peer, v, want)
		}
		rep, err := c.Explain(peer)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rep.String(), ex.Report().String(); got != want {
			t.Fatalf("len %d, %s: Explain diverges from replay:\n got:  %s\n want: %s", n, peer, got, want)
		}
		sc, err := c.Scenario(peer)
		if err != nil {
			t.Fatal(err)
		}
		if want := ex.MinimalScenario(); !reflect.DeepEqual(sc, want) {
			t.Fatalf("len %d, %s: Scenario = %v, replay %v", n, peer, sc, want)
		}
		// Every cursor, one past the end included: the answer is the
		// replay's visible transitions with indices ≥ from.
		for from := 0; from <= n+1; from++ {
			for len(wantTrans) > 0 && wantTrans[0].Index < from {
				wantTrans = wantTrans[1:]
			}
			ts, tn, err := c.Transitions(peer, from)
			if err != nil {
				t.Fatal(err)
			}
			same := len(ts) == 0 && len(wantTrans) == 0 || reflect.DeepEqual(ts, wantTrans)
			if tn != n || !same {
				t.Fatalf("len %d, %s, from %d: Transitions = (%+v, %d), replay (%+v, %d)", n, peer, from, ts, tn, wantTrans, n)
			}
		}
	}
}

// TestRecoverRebuildsExplainers is the satellite regression test for the
// explainer cold start: recovery itself must rebuild the per-peer explainer
// state, so a peer's first Explain after NewDurable does no prefix replay. The
// assertion is structural (the published snapshot's frozen explainers cover
// the whole recovered prefix the moment NewDurable returns), not a timing
// measurement, so it cannot flake with prefix length.
func TestRecoverRebuildsExplainers(t *testing.T) {
	prog := workload.Hiring()
	dir := t.TempDir()
	c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range randomWorkload(t, prog, 7, 20) {
		if _, err := c.Submit(s.peer, s.rule, s.bindings); err != nil {
			t.Fatal(err)
		}
	}
	want := c.Len()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	rc, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if got := rc.Len(); got != want {
		t.Fatalf("recovered %d events, want %d", got, want)
	}
	// Structural cold-start check: before any Explain call, the published
	// snapshot already holds every peer's frozen explainer, synced to the
	// full recovered prefix and bound to the recovered run (not the empty
	// pre-replay one New created).
	s := rc.snap.Load()
	if s == nil {
		t.Fatal("no snapshot published by NewDurable")
	}
	if s.Len() != want {
		t.Fatalf("snapshot covers %d events, want %d", s.Len(), want)
	}
	for _, peer := range prog.Peers() {
		fe := s.exp[peer]
		if fe == nil {
			t.Fatalf("no frozen explainer for %s in the recovery snapshot", peer)
		}
		if fe.Len() != want {
			t.Fatalf("frozen explainer for %s covers %d events, want %d", peer, fe.Len(), want)
		}
	}
	// And the reports are served lock-free from that state (would deadlock
	// if the first Explain still rebuilt under the mutex).
	rc.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, peer := range prog.Peers() {
			if _, err := rc.Explain(peer); err != nil {
				t.Error(err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		rc.mu.Unlock()
		t.Fatal("Explain after NewDurable blocked on the coordinator mutex")
	}
	rc.mu.Unlock()
}

// TestOneExplainerPerRun pins the explainer's exact cost: a coordinator
// holds one explainer serving every peer over one shared analysis, which
// takes one step per released event. Recovering an n-event prefix for P
// peers therefore performs exactly n analysis steps (an analysis per peer
// would take P·n), and the analysis stays at the released length as the
// recovered run grows.
func TestOneExplainerPerRun(t *testing.T) {
	prog := workload.Hiring()
	subs := randomWorkload(t, prog, 9, 24)
	dir := t.TempDir()
	c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmitAll(t, c, subs[:16])
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	rc, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	rc.mu.Lock()
	ex := rc.explainer
	if ex.Run != rc.run {
		t.Fatal("the explainer is bound to the pre-replay run, not the recovered one")
	}
	if got := ex.Len(); got != 16 || rc.observable != 16 {
		t.Fatalf("recovery took %d analysis steps over a released prefix of %d, want 16 and 16", got, rc.observable)
	}
	for _, p := range prog.Peers() {
		if got := ex.Freeze(p).Len(); got != 16 {
			t.Fatalf("the explainer covers %d events for %s, want 16", got, p)
		}
	}
	rc.mu.Unlock()

	mustSubmitAll(t, rc, subs[16:])
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.explainer != ex {
		t.Fatal("the coordinator replaced its explainer while the run grew")
	}
	if got := ex.Len(); got != 24 || rc.observable != 24 {
		t.Fatalf("analysis at %d steps, released prefix %d, want 24 and 24", got, rc.observable)
	}
}

// TestReadPathMetrics pins the read-path observability surface: every
// snapshot read is counted on one family, snapshot swaps accumulate with
// releases, and the age gauge is sampled at scrape time.
func TestReadPathMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	prog := workload.Hiring()
	c := New("Hiring", prog)
	c.InstrumentRun(reg, DefaultRun)

	if _, err := c.Submit("hr", "clear", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.View("hr"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Explain("hr"); err != nil {
		t.Fatal(err)
	}
	if got := gaugeValue(t, reg, "wf_read_lockfree_total"); got != 2 {
		t.Fatalf("wf_read_lockfree_total = %v, want 2", got)
	}
	if _, err := c.Scenario("hr"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Transitions("hr", 0); err != nil {
		t.Fatal(err)
	}
	c.Trace()
	c.Len() // a length probe is not a read of the run's content
	if got := gaugeValue(t, reg, "wf_read_lockfree_total"); got != 5 {
		t.Fatalf("wf_read_lockfree_total = %v, want 5", got)
	}

	// One publication per release; the construction-time swap predates
	// InstrumentRun and is uncounted (seq still records it).
	if got := gaugeValue(t, reg, "wf_snapshot_swaps_total"); got != 1 {
		t.Fatalf("wf_snapshot_swaps_total = %v, want 1", got)
	}
	seq, age, events := c.SnapshotInfo()
	if seq != 2 || events != 1 {
		t.Fatalf("SnapshotInfo = (%d, %v, %d), want seq 2 with 1 event", seq, age, events)
	}
	// The age gauge is pulled by the OnGather hook at scrape time.
	if got := gaugeValue(t, reg, "wf_snapshot_age_seconds"); got <= 0 {
		t.Fatalf("wf_snapshot_age_seconds = %v after a scrape, want > 0", got)
	}
}
