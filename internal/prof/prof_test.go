package prof

import (
	"strings"
	"testing"

	"collabwf/internal/cond"
	"collabwf/internal/data"
	"collabwf/internal/query"
)

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	if p.Enabled() {
		t.Fatal("nil profiler reports enabled")
	}
	p.GuardCheck("sue", 10, true)
	if c := p.Cond(); c != nil {
		t.Fatalf("nil profiler Cond() = %v, want nil", c)
	}
	var sc *Scope
	if sc = p.Scope("engine"); sc != nil {
		t.Fatalf("nil profiler Scope() = %v, want nil", sc)
	}
	if sc.Enabled() {
		t.Fatal("nil scope reports enabled")
	}
	if sc.Profiler() != nil {
		t.Fatal("nil scope has a profiler")
	}
	sc.RuleEval("r", "p", 5, &query.EvalStats{})
	sc.RuleFired("r", "p")
	sc.RuleReplay("r", "p", 5)
	snap := p.Snapshot()
	if snap.Enabled || len(snap.Rules) != 0 {
		t.Fatalf("nil snapshot = %+v", snap)
	}
}

// TestDisabledHooksAllocateNothing is the zero-overhead regression guard:
// with profiling off (nil scope/profiler) the hooks the hot paths call must
// not allocate — they are a nil check, nothing more.
func TestDisabledHooksAllocateNothing(t *testing.T) {
	var sc *Scope
	var p *Profiler
	es := &query.EvalStats{Literals: 3, Tuples: 7}
	if n := testing.AllocsPerRun(100, func() {
		sc.RuleEval("r", "p", 5, es)
		sc.RuleFired("r", "p")
		sc.RuleReplay("r", "p", 5)
		p.GuardCheck("sue", 10, false)
	}); n != 0 {
		t.Fatalf("disabled hooks allocate %.1f objects per call", n)
	}
	// The disabled condition-count path is a nil sink.
	c := cond.True{}
	if n := testing.AllocsPerRun(100, func() {
		c.Eval(nil, data.Tuple{}, p.Cond())
	}); n != 0 {
		t.Fatalf("disabled cond.Eval allocates %.1f objects per call", n)
	}
}

// TestWarmHooksAllocateNothing: after a rule's stats cell exists, the
// enabled hooks are atomic adds behind an RLock — still allocation-free, so
// long profiled runs don't churn the heap.
func TestWarmHooksAllocateNothing(t *testing.T) {
	p := New()
	sc := p.Scope("engine")
	es := &query.EvalStats{Literals: 1}
	sc.RuleEval("r", "p", 5, es) // register the cell
	p.GuardCheck("sue", 1, false)
	if n := testing.AllocsPerRun(100, func() {
		sc.RuleEval("r", "p", 5, es)
		sc.RuleFired("r", "p")
		sc.RuleReplay("r", "p", 5)
		p.GuardCheck("sue", 10, false)
	}); n != 0 {
		t.Fatalf("warm enabled hooks allocate %.1f objects per call", n)
	}
}

func TestAttributionAndSnapshot(t *testing.T) {
	p := New()
	sc := p.Scope("engine")
	// hot: 3 attempts, expensive; cold: 1 attempt, cheap.
	sc.RuleEval("hot", "q", 100, &query.EvalStats{
		Literals: 4, KeyLookups: 1, Tuples: 10, Valuations: 2,
		Rel: map[string]int64{"R": 10},
	})
	sc.RuleEval("hot", "q", 100, &query.EvalStats{Literals: 2, Tuples: 5, Rel: map[string]int64{"R": 5}})
	sc.RuleEval("hot", "q", 100, &query.EvalStats{})
	sc.RuleEval("cold", "q", 10, &query.EvalStats{Valuations: 1})
	sc.RuleFired("hot", "q")
	sc.RuleReplay("hot", "q", 7)
	p.GuardCheck("sue", 50, true)
	p.GuardCheck("sue", 30, false)

	snap := p.Snapshot()
	if !snap.Enabled {
		t.Fatal("snapshot disabled")
	}
	if snap.Totals.Attempts != 4 || snap.Totals.Candidates != 3 || snap.Totals.Fires != 1 ||
		snap.Totals.Replays != 1 || snap.Totals.EvalNS != 310 || snap.Totals.ReplayNS != 7 ||
		snap.Totals.Tuples != 15 || snap.Totals.KeyLookups != 1 || snap.Totals.Literals != 6 {
		t.Fatalf("totals = %+v", snap.Totals)
	}
	if len(snap.Rules) != 2 || snap.Rules[0].Rule != "hot" || snap.Rules[1].Rule != "cold" {
		t.Fatalf("rules not ranked by cost: %+v", snap.Rules)
	}
	hot := snap.Rules[0]
	if hot.Attempts != 3 || hot.Candidates != 2 || hot.Fires != 1 || hot.Replays != 1 ||
		hot.CumNS != 307 || hot.Tuples != 15 || hot.Peer != "q" {
		t.Fatalf("hot = %+v", hot)
	}
	if len(snap.Relations) != 1 || snap.Relations[0].Rel != "R" || snap.Relations[0].Tuples != 15 {
		t.Fatalf("relations = %+v", snap.Relations)
	}
	if len(snap.Guards) != 1 {
		t.Fatalf("guards = %+v", snap.Guards)
	}
	g := snap.Guards[0]
	if g.Peer != "sue" || g.Checks != 2 || g.NS != 80 || g.Violations != 1 {
		t.Fatalf("guard = %+v", g)
	}
	if len(snap.Phases) != 1 || snap.Phases[0].Phase != "engine" || snap.Phases[0].BodyEvals != 4 {
		t.Fatalf("phases = %+v", snap.Phases)
	}
}

// TestCondCounts: evaluations count into the profiler only when its sink is
// passed; an uncounted (nil-sink) evaluation, or one counted into another
// profiler, leaves it untouched.
func TestCondCounts(t *testing.T) {
	p, other := New(), New()
	c := cond.True{}
	c.Eval(nil, data.Tuple{}, p.Cond())
	c.Eval(nil, data.Tuple{}, p.Cond())
	c.Eval(nil, data.Tuple{}, nil)
	c.Eval(nil, data.Tuple{}, other.Cond())
	snap := p.Snapshot()
	if snap.Cond.True != 2 || snap.Cond.Total != 2 {
		t.Fatalf("cond counts = %+v", snap.Cond)
	}
}

func TestTableRendering(t *testing.T) {
	var nilP *Profiler
	if got := nilP.Snapshot().Table(0); !strings.Contains(got, "disabled") {
		t.Fatalf("disabled table = %q", got)
	}
	p := New()
	sc := p.Scope("engine")
	sc.RuleEval("alpha", "q", 1500, &query.EvalStats{Tuples: 3, Rel: map[string]int64{"R": 3}})
	sc.RuleEval("beta", "q", 100, &query.EvalStats{})
	sc.RuleFired("alpha", "q")
	p.GuardCheck("sue", 9, false)
	got := p.Snapshot().Table(0)
	for _, want := range []string{"RULE", "alpha", "beta", "TOTAL (2 rules)", "relation scans: R=3", "guard checks: sue=1", "phases: engine=2"} {
		if !strings.Contains(got, want) {
			t.Fatalf("table missing %q:\n%s", want, got)
		}
	}
	// Truncation points at the full listing.
	got = p.Snapshot().Table(1)
	if !strings.Contains(got, "1 more rules") || strings.Contains(got, "beta") {
		t.Fatalf("truncated table:\n%s", got)
	}
}

func TestFlags(t *testing.T) {
	var f Flags
	if f.New() != nil {
		t.Fatal("disabled flags built a profiler")
	}
	f.Enabled = true
	if f.New() == nil {
		t.Fatal("enabled flags built no profiler")
	}
}
