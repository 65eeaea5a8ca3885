// Audit: the master-server architecture from the paper's conclusion, run
// in-process. An expense workflow is hosted by a coordinator that guards
// transparency and 3-boundedness for the employee: managers and finance
// collaborate behind the scenes, the employee follows the transitions
// visible to her — each with its faithful explanation — and any attempt to
// complete an employee-visible step from stale, cross-stage information is
// rejected by the guard.
//
//	go run ./examples/audit
package main

import (
	"context"
	"fmt"
	"log"

	"collabwf"
	"collabwf/internal/design"
	"collabwf/internal/server"
	"collabwf/internal/workload"
)

func main() {
	// The stage-disciplined hiring workflow doubles as an approval
	// pipeline; the guard enforces what Theorem 6.2 promises.
	staged, err := design.Staged(workload.Hiring(), "sue")
	if err != nil {
		log.Fatal(err)
	}
	c, err := server.NewDurable("StagedHiring", staged,
		server.DurabilityConfig{Guards: map[string]int{"sue": 3}})
	if err != nil {
		log.Fatal(err)
	}

	submit := func(peer collabwf.Peer, rule string, bind map[string]collabwf.Value) *server.SubmitResult {
		res, err := c.Submit(peer, rule, bind)
		if err != nil {
			log.Fatalf("%s: %v", rule, err)
		}
		return res
	}

	// One full approval episode.
	submit("hr", "stage_refresh_hr", nil)
	res := submit("hr", "clear", nil)
	cand := collabwf.Value(res.Updates[0][len("+Cleared(") : len(res.Updates[0])-1])
	submit("cfo", "stage_refresh_cfo", nil)
	submit("cfo", "cfo_ok", map[string]collabwf.Value{"x": cand})
	submit("ceo", "approve", map[string]collabwf.Value{"x": cand})
	submit("hr", "hire", map[string]collabwf.Value{"x": cand})

	// Sue reads her visible transitions the way every listener does: wait
	// until the released run is longer than her cursor (here it already
	// is), then poll Transitions from the cursor.
	if _, err := c.Wait(context.Background(), 0); err != nil {
		log.Fatal(err)
	}
	notes, _, err := c.Transitions("sue", 0)
	if err != nil {
		log.Fatal(err)
	}
	if len(notes) == 0 {
		log.Fatal("sue observed no transition of the approval episode")
	}
	fmt.Println("sue's transitions (with faithful explanations):")
	for _, n := range notes {
		fmt.Printf("  event #%d ω=%v view=%s because=%v\n", n.Index, n.Omega, n.View, n.Because)
	}

	// A second episode where hr tries to reuse last stage's approval: the
	// guard rejects the hire, protecting sue's transparency.
	submit("hr", "stage_refresh_hr", nil)
	res2 := submit("hr", "clear", nil)
	cand2 := collabwf.Value(res2.Updates[0][len("+Cleared(") : len(res2.Updates[0])-1])
	submit("cfo", "stage_refresh_cfo", nil)
	submit("cfo", "cfo_ok", map[string]collabwf.Value{"x": cand2})
	submit("ceo", "approve", map[string]collabwf.Value{"x": cand2})
	// hr closes the stage with an unrelated visible clear…
	submit("hr", "clear", nil)
	// …and then tries to hire from the now-stale approval. The stage
	// discipline blocks it structurally (the approval carries the old
	// stage id); had it slipped through, the guard's monitor would have
	// rejected it.
	if _, err := c.Submit("hr", "hire", map[string]collabwf.Value{"x": cand2}); err != nil {
		fmt.Printf("\nstale hire blocked (stage discipline + guard):\n  %v\n", err)
	} else {
		log.Fatal("the stale hire should have been blocked")
	}

	fmt.Printf("\ncoordinator state: %d events accepted\n", c.Len())
	rep, err := c.Explain("sue")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(rep)
}
