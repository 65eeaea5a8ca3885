// Quickstart: define a collaborative workflow in the textual syntax, drive
// a run, inspect per-peer views, and ask for a runtime explanation.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"collabwf"
)

// A small document-review workflow: a writer drafts documents, an editor
// publishes them, and a reader — who only sees published documents — gets
// explanations of what she observes.
const spec = `
workflow Review

relation Doc(K, Author, Status)

peer writer {
    view Doc(K, Author, Status)
}
peer editor {
    view Doc(K, Author, Status)
}
peer reader {
    view Doc(K, Author) where Status = "pub"
}

rule draft at writer:
    +Doc(d, a, null) :- true

rule publish at editor:
    +Doc(d, x, "pub") :- Doc(d, x, null)

rule retract at editor:
    -Doc(d) :- Doc(d, x, "pub")
`

func main() {
	parsed, err := collabwf.Parse(spec)
	if err != nil {
		log.Fatal(err)
	}
	prog := parsed.Program

	// Drive a run: draft two documents, publish one.
	run := collabwf.NewRun(prog)
	d1, err := run.FireRule("draft", map[string]collabwf.Value{"a": "alice"})
	if err != nil {
		log.Fatal(err)
	}
	doc1 := d1.Updates()[0].Key
	if _, err := run.FireRule("draft", map[string]collabwf.Value{"a": "bob"}); err != nil {
		log.Fatal(err)
	}
	if _, err := run.FireRule("publish", map[string]collabwf.Value{"d": doc1, "x": "alice"}); err != nil {
		log.Fatal(err)
	}

	fmt.Println("run:")
	fmt.Println(run)
	fmt.Println("\nglobal instance:", run.Current())

	// The reader saw exactly one transition: alice's document appearing.
	fmt.Println("\nreader's view of the final instance:", run.ViewAt(run.Len()-1, "reader"))

	// Runtime explanation for the reader: the publish she observed is
	// explained by the (invisible) draft that created the document.
	ex := collabwf.NewExplainer(run, "reader")
	fmt.Println()
	fmt.Print(ex.Report())

	fmt.Println("minimal faithful scenario (event indices):", ex.MinimalScenario())
}
