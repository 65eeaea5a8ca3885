package collabwf_test

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"collabwf/internal/core"
	"collabwf/internal/data"
	"collabwf/internal/parse"
	"collabwf/internal/program"
	"collabwf/internal/workload"
)

// hiringGrower grows one hiring.wf run episode by episode (clear, cfo_ok,
// approve, hire on a fresh candidate), the shape of a long served run.
type hiringGrower struct {
	run  *program.Run
	exps []*core.Explainer
}

// newHiringGrower starts an empty hiring.wf run with an explainer per peer.
func newHiringGrower(t testing.TB) *hiringGrower {
	t.Helper()
	src, err := os.ReadFile("examples/specs/hiring.wf")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := parse.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	g := &hiringGrower{run: program.NewRun(spec.Program)}
	for _, p := range spec.Program.Peers() {
		g.exps = append(g.exps, core.NewExplainer(g.run, p))
	}
	return g
}

var hiringEpisodeRules = [4]string{"clear", "cfo_ok", "approve", "hire"}

// next builds the run's next event without appending it.
func (g *hiringGrower) next(t testing.TB) *program.Event {
	r := g.run
	rl := r.Prog.Rule(hiringEpisodeRules[r.Len()%4])
	x := data.Value(fmt.Sprintf("cand%d", r.Len()/4))
	e, err := program.NewEvent(rl, map[string]data.Value{"x": x})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// grow appends events until the run has n of them, syncing every
// explainer after each.
func (g *hiringGrower) grow(t testing.TB, n int) {
	for g.run.Len() < n {
		if err := g.run.Append(g.next(t)); err != nil {
			t.Fatal(err)
		}
		for _, ex := range g.exps {
			ex.Sync()
		}
	}
}

// appendCost measures the bytes and allocations per Run.Append over the
// next `window` events, and the bytes per event of syncing all explainers.
func (g *hiringGrower) appendCost(t testing.TB, window int) (appendB, appendAllocs, syncB float64) {
	var before, mid, after runtime.MemStats
	var a, s, m uint64
	for i := 0; i < window; i++ {
		e := g.next(t)
		runtime.ReadMemStats(&before)
		if err := g.run.Append(e); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&mid)
		for _, ex := range g.exps {
			ex.SyncTo(g.run.Len())
		}
		runtime.ReadMemStats(&after)
		a += mid.TotalAlloc - before.TotalAlloc
		m += mid.Mallocs - before.Mallocs
		s += after.TotalAlloc - mid.TotalAlloc
	}
	w := float64(window)
	return float64(a) / w, float64(m) / w, float64(s) / w
}

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// The per-event cost of a run does not depend on its length: bytes per
// Run.Append and per event of a 4-peer SyncTo are the same at event 4000
// as at event 1000 (within 1.25×), and an Append's allocation count grows
// at most by the few extra tree nodes a deeper relation path copies.
func TestRunCostFlatInLength(t *testing.T) {
	const window = 1000
	g := newHiringGrower(t)
	g.grow(t, 1000)
	a1, m1, s1 := g.appendCost(t, window)
	g.grow(t, 4000)
	a4, m4, s4 := g.appendCost(t, window)
	t.Logf("Append: %.0f B, %.1f allocs at 1000; %.0f B, %.1f allocs at 4000", a1, m1, a4, m4)
	t.Logf("4-peer SyncTo: %.0f B/event at 1000; %.0f B/event at 4000", s1, s4)
	if a4 > 1.25*a1 {
		t.Errorf("bytes per Append grew %.2f× from event 1000 to 4000, want ≤ 1.25×", a4/a1)
	}
	if s4 > 1.25*s1 {
		t.Errorf("bytes per 4-peer SyncTo event grew %.2f× from event 1000 to 4000, want ≤ 1.25×", s4/s1)
	}
	// Each relation holds a quarter of the candidates; quadrupling it
	// deepens the AVL path by at most ~1.44·log2(4) ≈ 3 nodes.
	const extraAllocs = 4
	if m4 > m1+extraAllocs {
		t.Errorf("allocations per Append: %.1f at 4000 vs %.1f at 1000, want ≤ +%d", m4, m1, extraAllocs)
	}
}

// A 3000-event hiring run with an explainer per peer retains at most 25 MB
// of heap: instances share all but their changed path, and no per-step view
// or closure copies are kept.
func TestRunRetainedHeapBounded(t *testing.T) {
	base := liveHeap()
	g := newHiringGrower(t)
	g.grow(t, 3000)
	live := liveHeap()
	runtime.KeepAlive(g)
	mb := float64(live-min(live, base)) / (1 << 20)
	t.Logf("retained heap of a 3000-event run with %d explainers: %.1f MB", len(g.exps), mb)
	if mb > 25 {
		t.Errorf("retained heap %.1f MB, want ≤ 25 MB", mb)
	}
}

// Firing a rule whose body the client binds only in part costs the same at
// event 4000 as at event 1000. The crowdsourcing submissions carry a served
// client's bindings, and accept leaves the work key open, so Fire scans
// Work; the revision chain names the parent revision and leaves its parent
// open. Completing the body is a search seeded with the bindings that stops
// at the first match, and a scanned tuple that misses allocates nothing:
// allocations per fire grow at most by the deeper tree path an Append
// copies, and bytes per fire stay within 1.25×.
func TestFireCostFlatInLength(t *testing.T) {
	crowd, err := workload.Crowdsourcing(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		prog *program.Program
		next func(int) workload.Firing
	}{
		{"crowdsourcing", crowd, workload.CrowdFiring},
		{"revisions", workload.Revisions(), workload.RevisionFiring},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := program.NewRun(tc.prog)
			var b, m [2]float64
			for i, n := range [2]int{1000, 4000} {
				for r.Len() < n {
					f := tc.next(r.Len())
					if _, err := r.FireRule(f.Rule, f.Bindings); err != nil {
						t.Fatal(err)
					}
				}
				// 700 fires: 100 whole crowdsourcing tasks.
				if b[i], m[i], err = workload.FireCost(r, tc.next, 700); err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("FireRule: %.0f B, %.1f allocs at 1000; %.0f B, %.1f allocs at 4000", b[0], m[0], b[1], m[1])
			if b[1] > 1.25*b[0] {
				t.Errorf("bytes per fire grew %.2f× from event 1000 to 4000, want ≤ 1.25×", b[1]/b[0])
			}
			const extraAllocs = 4
			if m[1] > m[0]+extraAllocs {
				t.Errorf("allocations per fire: %.1f at 4000 vs %.1f at 1000, want ≤ +%d", m[1], m[0], extraAllocs)
			}
		})
	}
}
