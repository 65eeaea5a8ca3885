package bench

import (
	"fmt"
	"math/rand"
	"time"

	"collabwf/internal/faithful"
	"collabwf/internal/program"
	"collabwf/internal/scenario"
	"collabwf/internal/workload"
)

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
}

// chainSets builds the hitting-set instance {0,1},{1,2},…,{n-2,n-1}; its
// minimum hitting set has size ⌈(n-1)/2⌉.
func chainSets(n int) workload.HittingSetInstance {
	sets := make([][]int, 0, n-1)
	for i := 0; i+1 < n; i++ {
		sets = append(sets, []int{i, i + 1})
	}
	return workload.HittingSetInstance{N: n, Sets: sets}
}

// E1MinimumScenario — Theorem 3.3: finding a minimum scenario is
// NP-complete. The exact exhaustive search grows exponentially with the
// number of invisible events while the greedy 1-minimal search stays
// polynomial; on the chain hitting-set family both find optima.
func E1MinimumScenario(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "minimum vs greedy scenario search (hitting-set family)",
		Claim:   "Theorem 3.3: minimum scenario is NP-complete; greedy 1-minimal is PTIME",
		Columns: []string{"n", "run len", "exact len", "exact time", "greedy len", "greedy time"},
	}
	ns := []int{4, 6, 7}
	if quick {
		ns = []int{4, 5}
	}
	var prevExact time.Duration
	growing := true
	for _, n := range ns {
		inst := chainSets(n)
		_, r, err := workload.HittingSet(inst)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		min, err := scenario.MinimumCtx(Ctx(), r, "p", scenario.Options{MaxChoice: 40, MaxChecks: 1 << 26, Parallelism: Parallelism, Stats: &SuiteScenario})
		if err != nil {
			return nil, err
		}
		exactTime := time.Since(start)
		start = time.Now()
		greedy := scenario.Greedy(r, "p")
		greedyTime := time.Since(start)
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", r.Len()),
			fmt.Sprintf("%d", len(min)), ms(exactTime),
			fmt.Sprintf("%d", len(greedy)), ms(greedyTime))
		if len(greedy) < len(min) {
			return nil, fmt.Errorf("E1: greedy shorter than exact minimum")
		}
		if prevExact > 0 && exactTime < prevExact {
			growing = false
		}
		prevExact = exactTime
		wantMin := (n-1+1)/2 + len(inst.Sets) + 1
		if len(min) != wantMin {
			t.Notef("n=%d: exact length %d differs from closed form %d", n, len(min), wantMin)
		}
	}
	t.Notef("exact-search time grows with n: %v (expected: exponential growth)", growing)
	return t, nil
}

// E2MinimalityCheck — Theorem 3.4: testing minimality is coNP-complete.
// The formula family needs an exponential sweep over removable events; the
// verdict always matches brute-force (un)satisfiability.
func E2MinimalityCheck(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "minimality testing (formula family)",
		Claim:   "Theorem 3.4: minimality of a scenario is coNP-complete",
		Columns: []string{"vars", "satisfiable", "minimal", "check time", "agrees"},
	}
	ns := []int{3, 5, 7}
	if quick {
		ns = []int{2, 3}
	}
	for _, n := range ns {
		// Unsatisfiable family: (x_i ∨ x_{i+1}) for all i, plus ¬x_i for
		// all i.
		var unsat workload.CNF
		for i := 0; i+1 < n; i++ {
			unsat = append(unsat, []workload.Lit{{Var: i}, {Var: i + 1}})
		}
		for i := 0; i < n; i++ {
			unsat = append(unsat, []workload.Lit{{Var: i, Neg: true}})
		}
		// Satisfiable family: ¬x_0 ∧ (x_1 ∨ ¬x_2 ∨ …).
		sat := workload.CNF{{{Var: 0, Neg: true}}}
		for _, f := range []workload.CNF{sat, unsat} {
			_, r, err := workload.Formula(n, f)
			if err != nil {
				return nil, err
			}
			all := make([]int, r.Len())
			for i := range all {
				all[i] = i
			}
			start := time.Now()
			minimal, err := scenario.IsMinimal(r, "p", all, scenario.Options{MaxChoice: 40, MaxChecks: 1 << 26, Stats: &SuiteScenario})
			if err != nil {
				return nil, err
			}
			dur := time.Since(start)
			isSat := f.Satisfiable(n)
			t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%v", isSat),
				fmt.Sprintf("%v", minimal), ms(dur), fmt.Sprintf("%v", minimal == !isSat))
			if minimal == isSat {
				return nil, fmt.Errorf("E2: verdict disagrees with satisfiability for n=%d", n)
			}
		}
	}
	t.Notef("minimal ⇔ unsatisfiable on every instance (reduction of Thm 3.4)")
	return t, nil
}

// E3MinimalFaithfulScaling — Theorem 4.7: the unique minimal faithful
// scenario is computable in polynomial time. Measured on chains of growing
// length, the per-event cost stays low-polynomial.
func E3MinimalFaithfulScaling(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "minimal faithful scenario computation (chain runs)",
		Claim:   "Theorem 4.7: unique minimal p-faithful scenario in PTIME",
		Columns: []string{"run len", "scenario len", "time", "ns/event"},
	}
	ns := []int{50, 100, 200, 400, 800}
	if quick {
		ns = []int{20, 40}
	}
	for _, n := range ns {
		_, r, err := workload.Chain(n)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		a := faithful.NewAnalysis(r)
		seq, _, err := faithful.Minimal(a, "p")
		if err != nil {
			return nil, err
		}
		dur := time.Since(start)
		if seq.Len() != n {
			return nil, fmt.Errorf("E3: chain scenario must keep all %d events, got %d", n, seq.Len())
		}
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", seq.Len()), ms(dur),
			fmt.Sprintf("%d", dur.Nanoseconds()/int64(n)))
	}
	t.Notef("the whole chain is relevant (every event feeds the visible one); growth is polynomial")
	return t, nil
}

// E4Semiring — Theorem 4.8: p-faithful scenarios are closed under union
// and intersection. Random faithful scenarios are combined and re-checked.
func E4Semiring(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "semiring closure of faithful scenarios",
		Claim:   "Theorem 4.8: faithful scenarios form a semiring under + (∪) and × (∩)",
		Columns: []string{"samples", "pairs", "closed under +", "closed under ×", "op time/pair"},
	}
	inst := chainSets(5)
	_, r, err := workload.HittingSet(inst)
	if err != nil {
		return nil, err
	}
	a := faithful.NewAnalysis(r)
	rng := rand.New(rand.NewSource(1))
	samples := 24
	if quick {
		samples = 8
	}
	visible := faithful.NewSeq(r.VisibleEvents("p")...)
	var seqs []faithful.Seq
	for i := 0; i < samples; i++ {
		seed := visible.Clone()
		for j := 0; j < r.Len(); j++ {
			if rng.Intn(3) == 0 {
				seed.Add(j)
			}
		}
		seqs = append(seqs, faithful.Fixpoint(a, seed, "p"))
	}
	okAdd, okMul, pairs := 0, 0, 0
	start := time.Now()
	for _, x := range seqs {
		for _, y := range seqs {
			pairs++
			if faithful.IsFaithfulScenario(a, faithful.Add(x, y), "p") {
				okAdd++
			}
			if faithful.IsFaithfulScenario(a, faithful.Mul(x, y), "p") {
				okMul++
			}
		}
	}
	per := time.Since(start) / time.Duration(pairs*2)
	t.AddRow(fmt.Sprintf("%d", samples), fmt.Sprintf("%d", pairs),
		fmt.Sprintf("%d/%d", okAdd, pairs), fmt.Sprintf("%d/%d", okMul, pairs), per.String())
	if okAdd != pairs || okMul != pairs {
		return nil, fmt.Errorf("E4: closure failed (%d/%d, %d/%d)", okAdd, pairs, okMul, pairs)
	}
	t.Notef("closure held on 100%% of sampled pairs")
	return t, nil
}

// E5Incremental — Section 4: incremental maintenance of the minimal
// faithful scenario avoids fixpoint recomputation. Total maintenance cost
// over a growing run: incremental is near-linear, from-scratch is
// quadratic.
func E5Incremental(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "incremental vs from-scratch explanation maintenance",
		Claim:   "Section 4: one T_p application per event instead of a fixpoint recomputation",
		Columns: []string{"events", "incremental", "from scratch", "speedup"},
	}
	ns := []int{50, 100, 200}
	if quick {
		ns = []int{20, 40}
	}
	lastSpeedup := 0.0
	minSpeedup := 1e9
	for _, n := range ns {
		_, full, err := workload.Wide(5, n-5)
		if err != nil {
			return nil, err
		}
		// Incremental: maintain after every event.
		inc := program.NewRunFrom(full.Prog, full.Initial)
		m := faithful.NewMaintainer(inc, "p")
		start := time.Now()
		for i := 0; i < full.Len(); i++ {
			if err := inc.Append(full.Event(i)); err != nil {
				return nil, err
			}
			m.Sync()
		}
		incTime := time.Since(start)
		// From scratch: recompute the fixpoint after every event.
		scr := program.NewRunFrom(full.Prog, full.Initial)
		start = time.Now()
		for i := 0; i < full.Len(); i++ {
			if err := scr.Append(full.Event(i)); err != nil {
				return nil, err
			}
			a := faithful.NewAnalysis(scr)
			faithful.Fixpoint(a, faithful.NewSeq(scr.VisibleEvents("p")...), "p")
		}
		scrTime := time.Since(start)
		lastSpeedup = float64(scrTime) / float64(incTime)
		if lastSpeedup < minSpeedup {
			minSpeedup = lastSpeedup
		}
		t.AddRow(fmt.Sprintf("%d", n), ms(incTime), ms(scrTime), fmt.Sprintf("%.1fx", lastSpeedup))
		// Sanity: both yield the same scenario at the end.
		a := faithful.NewAnalysis(scr)
		want := faithful.Fixpoint(a, faithful.NewSeq(scr.VisibleEvents("p")...), "p")
		if !m.Minimal().Equal(want) {
			return nil, fmt.Errorf("E5: incremental and from-scratch disagree at n=%d", n)
		}
	}
	if err := t.gate(quick, "min incremental speedup over from-scratch", minSpeedup, 1); err != nil {
		return nil, err
	}
	t.Notef("one T_p application per event instead of a fixpoint: %.1fx faster at the largest size", lastSpeedup)
	return t, nil
}

// E6Boundedness — Theorem 5.10: h-boundedness is decidable. On the chain
// family the procedure returns exactly the predicted verdicts, with cost
// growing in the budget (the problem is PSPACE in general).
func E6Boundedness(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "h-boundedness decision (chain family)",
		Claim:   "Theorem 5.10: h-boundedness is decidable (PSPACE)",
		Columns: []string{"depth d", "h", "verdict", "time"},
	}
	depths := []int{2, 3, 4}
	if quick {
		depths = []int{2, 3}
	}
	opts := SearchOptions()
	for _, d := range depths {
		p, _, err := workload.Chain(d)
		if err != nil {
			return nil, err
		}
		for _, h := range []int{d - 1, d} {
			start := time.Now()
			v, err := checkBounded(p, "p", h, opts)
			if err != nil {
				return nil, err
			}
			dur := time.Since(start)
			verdict := "h-bounded"
			if v != nil {
				verdict = "violation"
			}
			t.AddRow(fmt.Sprintf("%d", d), fmt.Sprintf("%d", h), verdict, ms(dur))
			want := h >= d
			if (v == nil) != want {
				return nil, fmt.Errorf("E6: Chain(%d) h=%d verdict wrong", d, h)
			}
		}
	}
	t.Notef("Chain(d) is d-bounded and not (d−1)-bounded for p, as predicted")
	return t, nil
}

// SearchOptions returns the small bounded-search caps shared by the static
// experiments (propositional programs; 1 fresh constant suffices).
func SearchOptions() schemaOpts {
	return schemaOpts{PoolFresh: 1, MaxTuplesPerRelation: 1}
}
