// Crowdsourcing: a task marketplace with a requester, a platform and
// several workers — the kind of multi-party application the paper's
// introduction motivates. Workers see the task board and only their own
// claims, work and payments. The example streams events into a run while a
// worker's explainer follows along incrementally: when a payment appears in
// the worker's view, the explanation names the exact chain of events —
// including invisible platform decisions — that produced it.
//
//	go run ./examples/crowdsourcing
package main

import (
	"fmt"
	"log"

	"collabwf"
	"collabwf/internal/workload"
)

func main() {
	prog, err := workload.Crowdsourcing(3)
	if err != nil {
		log.Fatal(err)
	}
	run := collabwf.NewRun(prog)

	// Worker w0 watches the run through an incremental explainer.
	w0 := collabwf.NewExplainer(run, "w0")

	fire := func(rule string, bind map[string]collabwf.Value) *collabwf.Event {
		e, err := run.FireRule(rule, bind)
		if err != nil {
			log.Fatalf("%s: %v", rule, err)
		}
		w0.Sync()
		return e
	}

	// The requester posts two tasks.
	t1 := fire("post", nil).Updates()[0].Key
	t2 := fire("post", nil).Updates()[0].Key

	// Workers race: w0 and w1 claim task 1, w2 claims task 2.
	fire("claim0", map[string]collabwf.Value{"t": t1})
	fire("claim1", map[string]collabwf.Value{"t": t1})
	fire("claim2", map[string]collabwf.Value{"t": t2})

	// w0 and w1 both submit; the platform accepts w0's work and pays.
	fire("submit0", map[string]collabwf.Value{"t": t1})
	fire("submit1", map[string]collabwf.Value{"t": t1})
	fire("accept", map[string]collabwf.Value{"t": t1, "w": "w0"})
	fire("pay", map[string]collabwf.Value{"t": t1, "w": "w0"})

	fmt.Printf("run: %d events; w0 observed %d transitions\n\n",
		run.Len(), len(run.VisibleEvents("w0")))

	// What w0 sees at the end: the board, their claim/work, their payment.
	fmt.Println("w0's final view:", run.ViewAt(run.Len()-1, "w0"))

	// The explanation of w0's observations. Note what it includes and
	// excludes: the platform's accept (invisible to w0 except through the
	// Open-marker deletion) is pinned as the cause of the payment, while
	// w1's and w2's parallel activity is filtered out entirely.
	fmt.Println()
	fmt.Print(w0.Report())

	minSeq := w0.MinimalScenario()
	fmt.Printf("\nminimal faithful scenario: %d of %d events (%v)\n", len(minSeq), run.Len(), minSeq)

	// Contrast with w1, whose submission was never accepted.
	w1 := collabwf.NewExplainer(run, "w1")
	fmt.Println()
	fmt.Print(w1.Report())

	// Post another task so the board stays busy, and show the explainer
	// keeps up incrementally.
	fire("post", nil)
	fire("claim0", map[string]collabwf.Value{"t": t2})
	fmt.Printf("\nafter more activity: w0's scenario now has %d events\n", len(w0.MinimalScenario()))
}
