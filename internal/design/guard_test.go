package design

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/parse"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/workload"
)

// guardedRun is a run whose events pass a Guard, the way a coordinator
// filters submissions: a rejected event is truncated away. onReject, when
// set, sees the run still holding each rejected event.
type guardedRun struct {
	run      *program.Run
	g        *Guard
	rejected int
	onReject func(r *program.Run, peer schema.Peer, reason string)
}

func newGuardedRun(p *program.Program, budgets map[schema.Peer]int) *guardedRun {
	r := program.NewRun(p)
	return &guardedRun{run: r, g: NewGuard(r, budgets)}
}

func (gr *guardedRun) fire(rule string, bindings map[string]data.Value) (*program.Event, error) {
	e, err := gr.run.FireRule(rule, bindings)
	if err != nil {
		return nil, err
	}
	return e, gr.keep()
}

// keep commits the run's newest event if the guard admits it and
// truncates it away otherwise.
func (gr *guardedRun) keep() error {
	peer, reason, ok := gr.g.Check()
	if ok {
		gr.g.Commit()
		return nil
	}
	if gr.onReject != nil {
		gr.onReject(gr.run, peer, reason)
	}
	gr.rejected++
	gr.run.Truncate(gr.run.Len() - 1)
	gr.g.Truncate(gr.run.Len())
	return fmt.Errorf("rejected by the transparency guard for %s: %s", peer, reason)
}

// The guard accepts a whole transparent stage-disciplined episode.
func TestGuardedRunAcceptsTransparentEpisode(t *testing.T) {
	staged, err := Staged(workload.Hiring(), "sue")
	if err != nil {
		t.Fatal(err)
	}
	g := newGuardedRun(staged, map[schema.Peer]int{"sue": 3})
	mustGuard(t, g, "stage_refresh_hr", nil)
	e, err := g.fire("clear", nil)
	if err != nil {
		t.Fatal(err)
	}
	cand := e.Updates()[0].Key
	mustGuard(t, g, "stage_refresh_cfo", nil)
	mustGuard(t, g, "cfo_ok", map[string]data.Value{"x": cand})
	mustGuard(t, g, "approve", map[string]data.Value{"x": cand})
	mustGuard(t, g, "hire", map[string]data.Value{"x": cand})
	if g.rejected != 0 {
		t.Fatalf("rejected %d events", g.rejected)
	}
	if !g.run.Current().HasKey("Hire", cand) {
		t.Fatal("guarded run must complete the hire")
	}
}

// With budget h=2 the visible hire overflows the stage budget and is
// rejected; the run stays at its pre-hire state and can continue.
func TestGuardedRunRejectsOverBudget(t *testing.T) {
	staged, err := Staged(workload.Hiring(), "sue")
	if err != nil {
		t.Fatal(err)
	}
	g := newGuardedRun(staged, map[schema.Peer]int{"sue": 2})
	mustGuard(t, g, "stage_refresh_hr", nil)
	e, err := g.fire("clear", nil)
	if err != nil {
		t.Fatal(err)
	}
	cand := e.Updates()[0].Key
	mustGuard(t, g, "stage_refresh_cfo", nil)
	mustGuard(t, g, "cfo_ok", map[string]data.Value{"x": cand})
	mustGuard(t, g, "approve", map[string]data.Value{"x": cand})
	lenBefore := g.run.Len()
	_, err = g.fire("hire", map[string]data.Value{"x": cand})
	if err == nil || !strings.Contains(err.Error(), "guard") {
		t.Fatalf("hire must be rejected, got %v", err)
	}
	if g.rejected != 1 {
		t.Fatalf("rejected=%d", g.rejected)
	}
	if g.run.Len() != lenBefore || g.g.admitted != lenBefore {
		t.Fatal("rejected event must not remain in the run")
	}
	// The guarded run remains usable after a rejection: the stage is still
	// open (the rejected hire would have closed it), so another visible
	// clear — which only reads the Stage relation — goes through.
	if _, err := g.fire("clear", nil); err != nil {
		t.Fatal(err)
	}
	// Every prefix of what the guard accepted is clean.
	if vs := CheckRun(g.run, "sue", 2); len(vs) != 0 {
		t.Fatalf("guarded run has violations: %v", vs)
	}
}

// Cross-stage information use on the raw hiring program is blocked.
func TestGuardedRunBlocksCrossStageUse(t *testing.T) {
	g := newGuardedRun(workload.Hiring(), map[schema.Peer]int{"sue": 3})
	e, err := g.fire("clear", nil)
	if err != nil {
		t.Fatal(err)
	}
	cand := e.Updates()[0].Key
	mustGuard(t, g, "cfo_ok", map[string]data.Value{"x": cand})
	mustGuard(t, g, "approve", map[string]data.Value{"x": cand})
	// A second visible clear opens a new stage…
	mustGuard(t, g, "clear", nil)
	// …after which hiring based on the stale Approved fact is rejected.
	if _, err := g.fire("hire", map[string]data.Value{"x": cand}); err == nil {
		t.Fatal("cross-stage hire must be rejected")
	}
}

func mustGuard(t *testing.T, g *guardedRun, rule string, bind map[string]data.Value) {
	t.Helper()
	if _, err := g.fire(rule, bind); err != nil {
		t.Fatalf("%s: %v", rule, err)
	}
}

// randomGuardedRun fires up to n seeded random candidates of p through a
// guard of budgets, handing each rejection to onReject.
func randomGuardedRun(p *program.Program, budgets map[schema.Peer]int, n int, seed int64,
	onReject func(r *program.Run, peer schema.Peer, reason string)) *guardedRun {
	g := newGuardedRun(p, budgets)
	g.onReject = onReject
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < n; step++ {
		cands := g.run.Candidates(4)
		if len(cands) == 0 {
			break
		}
		if _, err := g.run.Fire(cands[rng.Intn(len(cands))]); err == nil {
			_ = g.keep() // a rejection is onReject's to judge
		}
	}
	return g
}

// The Guard is the filter mode of the alert-mode CheckRun: over seeded
// random runs of three programs and every budget h ∈ {1,2,3}, guarding
// every peer at once, each admitted prefix is CheckRun-clean for every
// peer, and each rejected event is the violation CheckRun finds at its
// index for the reported peer — and for no peer checked before it.
func TestGuardAgreesWithCheckRun(t *testing.T) {
	staged, err := Staged(workload.Hiring(), "sue")
	if err != nil {
		t.Fatal(err)
	}
	crowd, err := workload.Crowdsourcing(2)
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]*program.Program{"hiring": workload.Hiring(), "staged": staged, "crowd": crowd}
	for name, p := range progs {
		rejected := 0
		for h := 1; h <= 3; h++ {
			budgets := map[schema.Peer]int{}
			for _, q := range p.Peers() {
				budgets[q] = h
			}
			// The coordinator's check order, which names the guarded peer.
			order := append([]schema.Peer(nil), p.Peers()...)
			sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
			for seed := int64(1); seed <= 4; seed++ {
				onReject := func(r *program.Run, peer schema.Peer, reason string) {
					rejected++
					i := r.Len() - 1
					for _, q := range order {
						vs := CheckRun(r, q, h)
						hit := len(vs) > 0 && vs[len(vs)-1].EventIndex == i
						if q != peer && hit {
							t.Fatalf("%s h=%d seed %d: event %d violates %s, checked before %s", name, h, seed, i, q, peer)
						}
						if q == peer {
							if !hit || vs[len(vs)-1].Reason != reason {
								t.Fatalf("%s h=%d seed %d: guard rejected event %d for %s (%s), CheckRun says %v", name, h, seed, i, peer, reason, vs)
							}
							return
						}
					}
					t.Fatalf("%s h=%d seed %d: rejection names unguarded peer %s", name, h, seed, peer)
				}
				g := randomGuardedRun(p, budgets, 60, seed, onReject)
				for _, q := range p.Peers() {
					if vs := CheckRun(g.run, q, h); len(vs) != 0 {
						t.Fatalf("%s h=%d seed %d: the guard admitted a run CheckRun rejects for %s: %v", name, h, seed, q, vs)
					}
				}
				if g.g.admitted != g.run.Len() {
					t.Fatalf("%s h=%d seed %d: guard at %d events, run at %d", name, h, seed, g.g.admitted, g.run.Len())
				}
			}
		}
		if rejected == 0 {
			t.Fatalf("%s: no run exercised a rejection", name)
		}
	}
}

// An event violating several guarded peers is rejected in the name of the
// first in sorted order, the peer a decision log records and an audit must
// reproduce.
func TestGuardNamesFirstViolatedPeer(t *testing.T) {
	spec, err := parse.Parse(`workflow Two
relation S(K)
relation V(K)
peer q { view S(K) view V(K) }
peer a { view V(K) }
peer b { view V(K) }
rule mk at q: +S(x) :- true
rule pub at q: +V(x) :- S(x)
`)
	if err != nil {
		t.Fatal(err)
	}
	g := newGuardedRun(spec.Program, map[schema.Peer]int{"b": 1, "a": 1})
	x := mustFire(t, g, "mk", nil).Updates()[0].Key
	// pub's step-provenance {mk, pub} exceeds h=1 for both a and b.
	if _, err := g.fire("pub", map[string]data.Value{"x": x}); err == nil || !strings.Contains(err.Error(), "guard for a:") {
		t.Fatalf("pub must be rejected for a, got %v", err)
	}
}

// A rejection is free: k rejected events on an n-event guarded run leave
// every monitor the same object, at exactly n processed events — none of
// the admitted prefix is replayed.
func TestGuardRejectionsReplayNothing(t *testing.T) {
	g := newGuardedRun(workload.Hiring(), map[schema.Peer]int{"sue": 3, "ceo": 3})
	cand := mustFire(t, g, "clear", nil).Updates()[0].Key
	mustGuard(t, g, "cfo_ok", map[string]data.Value{"x": cand})
	mustGuard(t, g, "approve", map[string]data.Value{"x": cand})
	mustGuard(t, g, "clear", nil)
	n := g.run.Len()
	mons := append([]*Monitor(nil), g.g.mons...)
	const k = 5
	for j := 0; j < k; j++ {
		// Hiring on the Approved fact of the previous stage.
		if _, err := g.fire("hire", map[string]data.Value{"x": cand}); err == nil {
			t.Fatal("cross-stage hire must be rejected")
		}
	}
	if g.rejected != k || g.run.Len() != n || g.g.admitted != n {
		t.Fatalf("rejected=%d run=%d guard=%d, want %d, %d, %d", g.rejected, g.run.Len(), g.g.admitted, k, n, n)
	}
	for idx, m := range g.g.mons {
		if m != mons[idx] || m.processed != n {
			t.Fatalf("monitor for %s rebuilt or replayed: same=%v processed=%d, want %d", m.peer, m == mons[idx], m.processed, n)
		}
	}
}

// Truncating admitted events rewinds the guard: its later verdicts equal
// those of a fresh guard over the shortened run.
func TestGuardTruncateRewinds(t *testing.T) {
	g := newGuardedRun(workload.Hiring(), map[schema.Peer]int{"sue": 3})
	cand := mustFire(t, g, "clear", nil).Updates()[0].Key
	mustGuard(t, g, "cfo_ok", map[string]data.Value{"x": cand})
	mustGuard(t, g, "approve", map[string]data.Value{"x": cand})
	mustGuard(t, g, "clear", nil)
	// Drop the second clear, as a failed fsync would: the hire is back in
	// its stage and goes through.
	g.run.Truncate(3)
	g.g.Truncate(3)
	if g.g.admitted != 3 {
		t.Fatalf("guard at %d events after Truncate(3)", g.g.admitted)
	}
	mustGuard(t, g, "hire", map[string]data.Value{"x": cand})
	if vs := CheckRun(g.run, "sue", 3); len(vs) != 0 {
		t.Fatalf("violations after rewind: %v", vs)
	}
}

func mustFire(t *testing.T, g *guardedRun, rule string, bind map[string]data.Value) *program.Event {
	t.Helper()
	e, err := g.fire(rule, bind)
	if err != nil {
		t.Fatalf("%s: %v", rule, err)
	}
	return e
}
