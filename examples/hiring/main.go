// Hiring: the paper's running example (Examples 5.1 and 5.7). Sue, a job
// candidate, sees only the Cleared and Hire relations while hr, cfo and ceo
// collaborate on her case. The example shows the full explanation
// toolchain:
//
//  1. a runtime explanation of what Sue observed (minimal faithful
//     scenario),
//
//  2. the transparency check failing with a concrete counterexample,
//
//  3. the stage-discipline rewriting that makes the workflow transparent
//     for Sue by design (Theorem 6.2),
//
//  4. the synthesized view program for Sue, whose rules carry provenance
//     (Theorem 5.13).
//
//     go run ./examples/hiring
package main

import (
	"fmt"
	"log"

	"collabwf"
	"collabwf/internal/workload"
)

func main() {
	prog := workload.Hiring()

	// 1. Drive the canonical run and explain it for Sue.
	run := collabwf.NewRun(prog)
	clear, err := run.FireRule("clear", nil) // the candidate id is invented fresh
	if err != nil {
		log.Fatal(err)
	}
	sue := clear.Updates()[0].Key
	for _, step := range []string{"cfo_ok", "approve", "hire"} {
		if _, err := run.FireRule(step, map[string]collabwf.Value{"x": sue}); err != nil {
			log.Fatal(err)
		}
	}
	ex := collabwf.NewExplainer(run, "sue")
	fmt.Println("=== runtime explanation for sue ===")
	fmt.Print(ex.Report())

	// 2. Static analysis: the program is 3-bounded but not transparent for
	// Sue — the cfo's invisible approval gates what she sees.
	opts := collabwf.SearchOptions{PoolFresh: 2, MaxTuplesPerRelation: 1}
	if v, err := collabwf.CheckBounded(prog, "sue", 3, opts); err != nil {
		log.Fatal(err)
	} else if v == nil {
		fmt.Println("\n=== static analysis ===")
		fmt.Println("3-bounded for sue ✓")
	}
	tv, err := collabwf.CheckTransparent(prog, "sue", 3, opts)
	if err != nil {
		log.Fatal(err)
	}
	if tv != nil {
		fmt.Println("not transparent for sue ✗ — counterexample:")
		fmt.Printf("  %s\n", tv)
	}

	// 3. The stage discipline makes the program transparent by design.
	staged, err := collabwf.Staged(prog, "sue")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== stage-disciplined program (Theorem 6.2) ===")
	fmt.Print(collabwf.PrintProgram("HiringStaged", staged))

	// A staged run is accepted by the transparency monitor with budget 3.
	sr := collabwf.NewRun(staged)
	mustFire(sr, "stage_refresh_hr", nil)
	c, err := sr.FireRule("clear", nil)
	if err != nil {
		log.Fatal(err)
	}
	cand := c.Updates()[0].Key
	mustFire(sr, "stage_refresh_cfo", nil)
	mustFire(sr, "cfo_ok", map[string]collabwf.Value{"x": cand})
	mustFire(sr, "approve", map[string]collabwf.Value{"x": cand})
	mustFire(sr, "hire", map[string]collabwf.Value{"x": cand})
	mon := collabwf.NewMonitor(sr, "sue", 3)
	fmt.Printf("monitor verdict on the staged run: transparent=%v violations=%v\n",
		mon.Transparent(), mon.Violations())

	// 4. Synthesize Sue's view program from the original workflow: it
	// contains (up to naming) the paper's rules +Cleared@ω(x) :- and
	// +Hire@ω(x) :- Cleared@ω(x), the latter carrying Sue's provenance.
	res, err := collabwf.SynthesizeViewProgram(prog, "sue", 3, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== synthesized view program for sue (Theorem 5.13) ===")
	for _, r := range res.OmegaRules {
		fmt.Println(" ", r)
	}
}

func mustFire(r *collabwf.Run, rule string, bind map[string]collabwf.Value) {
	if _, err := r.FireRule(rule, bind); err != nil {
		log.Fatalf("%s: %v", rule, err)
	}
}
