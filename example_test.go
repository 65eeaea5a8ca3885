package collabwf_test

import (
	"fmt"

	"collabwf"
)

// A workflow is declared in the textual syntax, driven by firing rules, and
// explained from a peer's perspective.
func Example() {
	spec, err := collabwf.Parse(`
workflow Review
relation Doc(K, Author, Status)
peer writer { view Doc(K, Author, Status) }
peer editor { view Doc(K, Author, Status) }
peer reader { view Doc(K, Author) where Status = "pub" }
rule draft at writer:   +Doc(d, a, null) :- true
rule publish at editor: +Doc(d, x, "pub") :- Doc(d, x, null)
`)
	if err != nil {
		panic(err)
	}
	run := collabwf.NewRun(spec.Program)
	d, _ := run.FireRule("draft", map[string]collabwf.Value{"a": "alice"})
	run.FireRule("publish", map[string]collabwf.Value{"d": d.Updates()[0].Key, "x": "alice"})

	fmt.Print(collabwf.NewExplainer(run, "reader").Report())
	// Output:
	// explanation for peer reader
	// observed #1 publish by ω (editor): set Doc[ν1] Status=pub
	//     because #0 draft by writer (invisible): created Doc(ν1, alice, ⊥)
}

// The minimal faithful scenario is the unique smallest faithful explanation
// of everything a peer observed (Theorem 4.7).
func ExampleMinimalFaithfulScenario() {
	spec, err := collabwf.Parse(`
workflow W
relation A(K)
relation B(K)
relation Noise(K)
peer q { view A(K)
         view B(K)
         view Noise(K) }
peer p { view B(K) }
rule mkA at q:    +A(x) :- true
rule mkB at q:    +B(x) :- A(x)
rule gossip at q: +Noise(x) :- true
`)
	if err != nil {
		panic(err)
	}
	run := collabwf.NewRun(spec.Program)
	a, _ := run.FireRule("mkA", nil)
	run.FireRule("gossip", nil) // irrelevant to p
	run.FireRule("gossip", nil) // irrelevant to p
	run.FireRule("mkB", map[string]collabwf.Value{"x": a.Updates()[0].Key})

	indices, sub, err := collabwf.MinimalFaithfulScenario(run, "p")
	if err != nil {
		panic(err)
	}
	fmt.Println("events kept:", indices, "of", run.Len())
	fmt.Println("replayed length:", sub.Len())
	// Output:
	// events kept: [0 3] of 4
	// replayed length: 2
}

// The static analyses decide h-boundedness and transparency, the
// prerequisites for view-program synthesis (Section 5).
func ExampleCheckBounded() {
	spec, err := collabwf.Parse(`
workflow Chain
relation A1(K)
relation A2(K)
peer q { view A1(K)
         view A2(K) }
peer p { view A2(K) }
rule s1 at q: +A1("0") :- not key A1("0")
rule s2 at q: +A2("0") :- A1("0"), not key A2("0")
`)
	if err != nil {
		panic(err)
	}
	opts := collabwf.SearchOptions{PoolFresh: 1, MaxTuplesPerRelation: 1}
	for _, h := range []int{1, 2} {
		v, err := collabwf.CheckBounded(spec.Program, "p", h, opts)
		if err != nil {
			panic(err)
		}
		fmt.Printf("h=%d bounded=%v\n", h, v == nil)
	}
	// Output:
	// h=1 bounded=false
	// h=2 bounded=true
}
