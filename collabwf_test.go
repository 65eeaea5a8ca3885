package collabwf_test

import (
	"strings"
	"testing"

	"collabwf"
)

const reviewSpec = `
workflow Review
relation Doc(K, Author, Status)
peer writer { view Doc(K, Author, Status) }
peer editor { view Doc(K, Author, Status) }
peer reader { view Doc(K, Author) where Status = "pub" }
rule draft at writer:   +Doc(d, a, null) :- true
rule publish at editor: +Doc(d, x, "pub") :- Doc(d, x, null)
rule retract at editor: -Doc(d) :- Doc(d, x, "pub")
`

func reviewRun(t *testing.T) (*collabwf.Program, *collabwf.Run, collabwf.Value) {
	t.Helper()
	spec, err := collabwf.Parse(reviewSpec)
	if err != nil {
		t.Fatal(err)
	}
	run := collabwf.NewRun(spec.Program)
	d, err := run.FireRule("draft", map[string]collabwf.Value{"a": "alice"})
	if err != nil {
		t.Fatal(err)
	}
	doc := d.Updates()[0].Key
	if _, err := run.FireRule("publish", map[string]collabwf.Value{"d": doc, "x": "alice"}); err != nil {
		t.Fatal(err)
	}
	return spec.Program, run, doc
}

func TestFacadeParseRunExplain(t *testing.T) {
	_, run, _ := reviewRun(t)
	ex := collabwf.NewExplainer(run, "reader")
	rep := ex.Report()
	if len(rep.Transitions) != 1 {
		t.Fatalf("transitions=%d", len(rep.Transitions))
	}
	if !strings.Contains(rep.String(), "because #0 draft") {
		t.Fatalf("report:\n%s", rep)
	}
	seq, sub, err := collabwf.MinimalFaithfulScenario(run, "reader")
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 2 || sub.Len() != 2 {
		t.Fatalf("scenario=%v", seq)
	}
	if !collabwf.IsScenario(run, "reader", seq) {
		t.Fatal("minimal faithful scenario must be a scenario")
	}
}

func TestFacadeScenarioSearch(t *testing.T) {
	_, run, _ := reviewRun(t)
	min, err := collabwf.MinimumScenario(run, "reader", collabwf.ScenarioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	greedy := collabwf.GreedyScenario(run, "reader")
	if len(min) > len(greedy) {
		t.Fatalf("minimum %v longer than greedy %v", min, greedy)
	}
}

func TestFacadeStaticPipeline(t *testing.T) {
	prog, _, _ := reviewRun(t)
	opts := collabwf.SearchOptions{PoolFresh: 2, MaxTuplesPerRelation: 1}
	if v, err := collabwf.CheckBounded(prog, "reader", 2, opts); err != nil || v != nil {
		t.Fatalf("review is 2-bounded for reader: %v %v", v, err)
	}
	// Reader transparency: publish depends only on data the reader's view
	// determines? The draft's Status=⊥ is hidden, so two fresh instances
	// can disagree — expect a verdict either way without error; just
	// exercise the call.
	if _, err := collabwf.CheckTransparent(prog, "reader", 2, opts); err != nil {
		t.Fatal(err)
	}
	res, err := collabwf.SynthesizeViewProgram(prog, "reader", 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OmegaRules) == 0 {
		t.Fatal("no ω-rules for reader")
	}
	text := collabwf.PrintProgram("ReaderView", res.Program)
	if _, err := collabwf.Parse(text); err != nil {
		t.Fatalf("synthesized program must reparse: %v\n%s", err, text)
	}
}

func TestFacadeDesignPipeline(t *testing.T) {
	// Guideline (C1) rejects the review schema for every peer: the
	// reader's selective Doc view means Doc is never "seen fully by all
	// its viewers".
	prog, _, _ := reviewRun(t)
	if _, err := collabwf.AcyclicBound(prog, "reader"); err == nil {
		t.Fatal("AcyclicBound must reject the reader's partial view (C1)")
	}
	if _, err := collabwf.Staged(prog, "editor"); err == nil {
		t.Fatal("staging must reject the schema (C1: reader sees Doc partially)")
	}

	// A fully-shared two-step pipeline satisfies (C1) and supports the
	// whole design toolchain.
	spec, err := collabwf.Parse(`
workflow Pipeline
relation A(K)
relation B(K)
peer boss { view A(K)
            view B(K) }
peer worker { view A(K)
              view B(K) }
rule mkA at worker: +A(x) :- true
rule mkB at worker: +B(x) :- A(x)
`)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := collabwf.AcyclicBound(spec.Program, "boss")
	if err != nil {
		t.Fatal(err)
	}
	if bound != 9 { // (a·b+1)^d = (2·1+1)^2
		t.Fatalf("bound=%d", bound)
	}
	staged, err := collabwf.Staged(spec.Program, "boss")
	if err != nil {
		t.Fatal(err)
	}
	run := collabwf.NewRun(staged)
	if _, err := run.FireRule("stage_refresh_worker", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := run.FireRule("mkA", nil); err != nil {
		t.Fatal(err)
	}
	mon := collabwf.NewMonitor(run, "boss", 2)
	if !mon.Transparent() {
		t.Fatalf("violations: %v", mon.Violations())
	}
}

func TestFacadeRandomRunDeterminism(t *testing.T) {
	prog, _, _ := reviewRun(t)
	a, err := collabwf.RandomRun(prog, 10, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := collabwf.RandomRun(prog, 10, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("random runs with the same seed must coincide")
	}
}

func TestFacadeConstants(t *testing.T) {
	if collabwf.Null.String() != "⊥" || collabwf.World != "ω" {
		t.Fatal("facade constants wrong")
	}
}
