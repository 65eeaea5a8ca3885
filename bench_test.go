// Benchmarks, one family per experiment of the harness (see DESIGN.md's
// per-experiment index and EXPERIMENTS.md). The paper has no empirical
// tables of its own; these benchmarks measure the implementations of its
// algorithms and decision procedures. Run with
//
//	go test -bench=. -benchmem
package collabwf_test

import (
	"fmt"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/design"
	"collabwf/internal/engine"
	"collabwf/internal/faithful"
	"collabwf/internal/program"
	"collabwf/internal/query"
	"collabwf/internal/scenario"
	"collabwf/internal/schema"
	"collabwf/internal/synth"
	"collabwf/internal/transparency"
	"collabwf/internal/workload"
)

// chainSets builds the hitting-set instance {0,1},{1,2},…,{n-2,n-1}.
func chainSets(n int) workload.HittingSetInstance {
	sets := make([][]int, 0, n-1)
	for i := 0; i+1 < n; i++ {
		sets = append(sets, []int{i, i + 1})
	}
	return workload.HittingSetInstance{N: n, Sets: sets}
}

// E1 — Theorem 3.3: exact minimum-scenario search (exponential) vs the
// greedy polynomial heuristic.
func BenchmarkE1MinimumScenarioExact(b *testing.B) {
	for _, n := range []int{4, 6} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			_, r, err := workload.HittingSet(chainSets(n))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := scenario.Minimum(r, "p", scenario.Options{MaxChoice: 40, MaxChecks: 1 << 26}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE1MinimumScenarioGreedy(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			_, r, err := workload.HittingSet(chainSets(n))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scenario.Greedy(r, "p")
			}
		})
	}
}

// E2 — Theorem 3.4: minimality checking on the formula gadget.
func BenchmarkE2MinimalityCheck(b *testing.B) {
	for _, n := range []int{3, 5} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var unsat workload.CNF
			for i := 0; i+1 < n; i++ {
				unsat = append(unsat, []workload.Lit{{Var: i}, {Var: i + 1}})
			}
			for i := 0; i < n; i++ {
				unsat = append(unsat, []workload.Lit{{Var: i, Neg: true}})
			}
			_, r, err := workload.Formula(n, unsat)
			if err != nil {
				b.Fatal(err)
			}
			all := make([]int, r.Len())
			for i := range all {
				all[i] = i
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := scenario.IsMinimal(r, "p", all, scenario.Options{MaxChoice: 40, MaxChecks: 1 << 26}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E3 — Theorem 4.7: minimal faithful scenario computation (PTIME).
func BenchmarkE3MinimalFaithful(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			_, r, err := workload.Chain(n)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := faithful.NewAnalysis(r)
				if _, _, err := faithful.Minimal(a, "p"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E4 — Theorem 4.8: semiring operations on faithful scenarios.
func BenchmarkE4SemiringOps(b *testing.B) {
	_, r, err := workload.HittingSet(chainSets(6))
	if err != nil {
		b.Fatal(err)
	}
	a := faithful.NewAnalysis(r)
	x := faithful.Fixpoint(a, faithful.NewSeq(r.VisibleEvents("p")...), "p")
	all := faithful.NewSeq()
	for i := 0; i < r.Len(); i++ {
		all.Add(i)
	}
	y := faithful.Fixpoint(a, all, "p")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = faithful.Add(x, y)
		_ = faithful.Mul(x, y)
	}
}

// E5 — Section 4: incremental maintenance vs from-scratch recomputation
// over a growing run.
func BenchmarkE5Incremental(b *testing.B) {
	_, full, err := workload.Wide(5, 95)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc := program.NewRunFrom(full.Prog, full.Initial)
		m := faithful.NewMaintainer(inc, "p")
		for j := 0; j < full.Len(); j++ {
			if err := inc.Append(full.Event(j)); err != nil {
				b.Fatal(err)
			}
			m.Sync()
		}
	}
}

func BenchmarkE5FromScratch(b *testing.B) {
	_, full, err := workload.Wide(5, 95)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scr := program.NewRunFrom(full.Prog, full.Initial)
		for j := 0; j < full.Len(); j++ {
			if err := scr.Append(full.Event(j)); err != nil {
				b.Fatal(err)
			}
			a := faithful.NewAnalysis(scr)
			faithful.Fixpoint(a, faithful.NewSeq(scr.VisibleEvents("p")...), "p")
		}
	}
}

// E6 — Theorem 5.10: h-boundedness decision.
func BenchmarkE6Boundedness(b *testing.B) {
	for _, d := range []int{2, 3} {
		for _, w := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("chain=%d/workers=%d", d, w), func(b *testing.B) {
				p, _, err := workload.Chain(d)
				if err != nil {
					b.Fatal(err)
				}
				opts := transparency.Options{PoolFresh: 1, MaxTuplesPerRelation: 1, Parallelism: w}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := transparency.CheckBounded(p, "p", d, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// E7 — Theorem 5.11: transparency decision on the hiring program, at
// increasing worker-pool widths (verdict and witness are width-invariant).
func BenchmarkE7Transparency(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			p := workload.Hiring()
			opts := transparency.Options{PoolFresh: 2, MaxTuplesPerRelation: 1, Parallelism: w}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := transparency.CheckTransparent(p, "sue", 3, opts)
				if err != nil {
					b.Fatal(err)
				}
				if v == nil {
					b.Fatal("hiring must not be transparent")
				}
			}
		})
	}
}

// E8 — Theorem 5.13: view-program synthesis.
func BenchmarkE8Synthesis(b *testing.B) {
	p := workload.Hiring()
	opts := transparency.Options{PoolFresh: 2, MaxTuplesPerRelation: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Synthesize(p, "sue", 3, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// E9 — Theorem 6.3: the closed-form acyclicity bound.
func BenchmarkE9AcyclicBound(b *testing.B) {
	p, _, err := workload.Chain(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := design.AcyclicBound(p, "p"); err != nil {
			b.Fatal(err)
		}
	}
}

// E10 — Remark 6.9: runtime monitor overhead on a staged run.
func BenchmarkE10Monitor(b *testing.B) {
	staged, err := design.Staged(workload.Hiring(), "sue")
	if err != nil {
		b.Fatal(err)
	}
	run := buildStagedRun(b, staged, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := design.NewMonitor(run, "sue", 3)
		if !m.Transparent() {
			b.Fatal("clean run flagged")
		}
	}
}

func buildStagedRun(b *testing.B, staged *program.Program, rounds int) *program.Run {
	b.Helper()
	r := program.NewRun(staged)
	for i := 0; i < rounds; i++ {
		if _, err := r.FireRule("stage_refresh_hr", nil); err != nil {
			b.Fatal(err)
		}
		e, err := r.FireRule("clear", nil)
		if err != nil {
			b.Fatal(err)
		}
		cand := e.Updates()[0].Key
		if _, err := r.FireRule("stage_refresh_cfo", nil); err != nil {
			b.Fatal(err)
		}
		for _, step := range []string{"cfo_ok", "approve", "hire"} {
			if _, err := r.FireRule(step, map[string]data.Value{"x": cand}); err != nil {
				b.Fatal(err)
			}
		}
	}
	return r
}

// E11 — explanation compression on noisy runs.
func BenchmarkE11Compression(b *testing.B) {
	for _, noise := range []int{0, 100} {
		b.Run(fmt.Sprintf("noise=%d", noise), func(b *testing.B) {
			_, r, err := workload.Wide(5, noise)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := faithful.NewAnalysis(r)
				if _, _, err := faithful.Minimal(a, "p"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E12 — Proposition 2.3: normal-form rewriting.
func BenchmarkE12NormalForm(b *testing.B) {
	p := workload.Hiring()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.NormalForm(); err != nil {
			b.Fatal(err)
		}
	}
}

// Substrate micro-benchmarks.
func BenchmarkSubstrateRandomRun(b *testing.B) {
	p := workload.Hiring()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.RandomRun(p, 12, int64(i), 4); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: greedy removal order. Backward removal sheds dependents before
// prerequisites and usually probes fewer non-scenarios; the front-first
// order it was measured against is recorded in EXPERIMENTS.md.
func BenchmarkAblationGreedyBackward(b *testing.B) {
	_, r, err := workload.HittingSet(chainSets(7))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scenario.Greedy(r, "p")
	}
}

// Ablation: the incremental maintainer's per-event cost vs batch fixpoint
// on the final run only (what a non-streaming explainer would do once).
func BenchmarkAblationBatchFixpointFinalOnly(b *testing.B) {
	_, full, err := workload.Wide(5, 95)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := faithful.NewAnalysis(full)
		faithful.Fixpoint(a, faithful.NewSeq(full.VisibleEvents("p")...), "p")
	}
}

// The key-bound lookup path keeps per-probe cost flat as relations grow
// (the scan path would be linear).
func BenchmarkQueryKeyLookup(b *testing.B) {
	for _, n := range []int{100, 10000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			rel := schema.MustRelation("R", "A")
			db := schema.MustDatabase(rel)
			s := schema.NewCollaborative(db)
			s.MustAddView(schema.MustView(rel, "p", []data.Attr{"A"}, nil))
			in := schema.NewInstance(db)
			for i := 0; i < n; i++ {
				in.MustPut("R", data.Tuple{data.Value(fmt.Sprintf("k%d", i)), "v"})
			}
			vi := schema.ViewOf(in, s, "p")
			q := query.Query{query.Atom{Rel: "R", Args: []query.Term{query.C("k42"), query.V("a")}}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := q.Eval(vi, 0); len(got) != 1 {
					b.Fatal("lookup failed")
				}
			}
		})
	}
}
