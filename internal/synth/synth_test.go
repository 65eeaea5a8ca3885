package synth

import (
	"strings"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/engine"
	"collabwf/internal/program"
	"collabwf/internal/query"
	"collabwf/internal/rule"
	"collabwf/internal/schema"
	"collabwf/internal/transparency"
	"collabwf/internal/workload"
)

var smallOpts = Options{PoolFresh: 2, MaxTuplesPerRelation: 1}

// Example 5.1: Sue's synthesized view program must contain (up to naming)
// the rules +Cleared@ω(x) :- and +Hire@ω(x) :- Cleared@ω(x), …
func TestSynthesizeHiringForSue(t *testing.T) {
	p := workload.Hiring()
	res, err := Synthesize(p, "sue", 3, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OmegaRules) == 0 || res.Triples == 0 {
		t.Fatal("no rules synthesized")
	}
	var sawClear, sawHire bool
	for _, r := range res.OmegaRules {
		s := r.String()
		if strings.Contains(s, "+Cleared(") && !strings.Contains(s, "Hire") {
			sawClear = true
		}
		if strings.Contains(s, "+Hire(") && strings.Contains(s, "Cleared(") {
			sawHire = true
		}
	}
	if !sawClear {
		t.Fatalf("missing the clear rule among:\n%s", res.Program)
	}
	if !sawHire {
		t.Fatalf("missing the hire-from-cleared rule among:\n%s", res.Program)
	}
	// The view program uses only peers sue and ω.
	for _, r := range res.Program.Rules() {
		if r.Peer != "sue" && r.Peer != schema.World {
			t.Fatalf("unexpected peer %s", r.Peer)
		}
	}
}

// Completeness on the canonical hiring run: Sue's view of the real run is
// replayable in the synthesized program.
func TestCompletenessHiring(t *testing.T) {
	p := workload.Hiring()
	res, err := Synthesize(p, "sue", 3, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	r := program.NewRun(p)
	e := r.MustFireRule("clear", nil)
	cand := e.Updates()[0].Key
	r.MustFireRule("cfo_ok", map[string]data.Value{"x": cand})
	r.MustFireRule("approve", map[string]data.Value{"x": cand})
	r.MustFireRule("hire", map[string]data.Value{"x": cand})

	vrun, err := MatchRun(res, r, "sue")
	if err != nil {
		t.Fatal(err)
	}
	// Sue sees two transitions (clear, hire), so the view run has 2 events.
	if vrun.Len() != 2 {
		t.Fatalf("view run length %d, want 2:\n%s", vrun.Len(), vrun)
	}
}

// Completeness over random runs of the source program.
func TestCompletenessRandomRuns(t *testing.T) {
	p := workload.Hiring()
	res, err := Synthesize(p, "sue", 3, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 8; seed++ {
		r, err := engine.RandomRun(p, 8, seed, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := MatchRun(res, r, "sue"); err != nil {
			t.Fatalf("seed %d: %v\nrun:\n%s", seed, err, r)
		}
	}
}

// Soundness: runs of the synthesized program correspond to source runs.
func TestSoundnessHiring(t *testing.T) {
	p := workload.Hiring()
	res, err := Synthesize(p, "sue", 3, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		rv, err := engine.RandomRun(res.Program, 3, seed, 3)
		if err != nil {
			t.Fatal(err)
		}
		src, err := FindSourceRun(p, "sue", rv, 14, 300000)
		if err != nil {
			t.Fatalf("seed %d: %v\nview run:\n%s", seed, err, rv)
		}
		if src == nil {
			t.Fatalf("seed %d: no source run", seed)
		}
	}
}

// Chain(d): the synthesized view program for p is a single ω-rule creating
// A_d out of nothing (the chain is invisible to p).
func TestSynthesizeChain(t *testing.T) {
	p, _, err := workload.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(p, "p", 3, Options{PoolFresh: 1, MaxTuplesPerRelation: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OmegaRules) != 1 {
		t.Fatalf("want 1 ω-rule, got %d:\n%s", len(res.OmegaRules), res.Program)
	}
	s := res.OmegaRules[0].String()
	if !strings.Contains(s, "+A3(") {
		t.Fatalf("rule %s should insert A3", s)
	}
}

// Provenance: the body of the Hire ω-rule names the Cleared fact that led
// to the transition — the data-level provenance of the update for Sue.
func TestProvenanceInBody(t *testing.T) {
	p := workload.Hiring()
	res, err := Synthesize(p, "sue", 3, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.OmegaRules {
		if !strings.Contains(r.String(), "+Hire(") {
			continue
		}
		foundProv := false
		for _, l := range r.Body {
			if a, ok := l.(query.Atom); ok && !a.Neg && a.Rel == "Cleared" {
				foundProv = true
			}
		}
		if !foundProv {
			t.Fatalf("hire rule lacks provenance body: %s", r)
		}
	}
}

// The synthesized program is itself a valid workflow program: rules
// validate, and the dedup gives deterministic naming omega1..omegaN.
func TestSynthesizedProgramWellFormed(t *testing.T) {
	p := workload.Hiring()
	res, err := Synthesize(p, "sue", 3, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.OmegaRules {
		if r.Name != "" && !strings.HasPrefix(r.Name, "omega") {
			t.Fatalf("rule %d name %q", i, r.Name)
		}
		if err := r.Validate(res.Program.Schema); err != nil {
			t.Fatalf("rule %s: %v", r, err)
		}
	}
	// Synthesis is deterministic.
	res2, err := Synthesize(p, "sue", 3, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OmegaRules) != len(res2.OmegaRules) {
		t.Fatal("nondeterministic synthesis")
	}
	for i := range res.OmegaRules {
		if res.OmegaRules[i].String() != res2.OmegaRules[i].String() {
			t.Fatalf("rule %d differs across syntheses", i)
		}
	}
}

// Synthesis composes with the transparency checks: a peer that sees
// everything gets ω-rules for the other peers' visible steps and the
// program is trivially transparent for it.
func TestSynthesizeFullyVisiblePeer(t *testing.T) {
	// Build a two-peer program where "boss" sees everything and "worker"
	// computes a two-step chain.
	a := schema.MustRelation("A")
	b := schema.MustRelation("B")
	db := schema.MustDatabase(a, b)
	s := schema.NewCollaborative(db)
	for _, peer := range []schema.Peer{"boss", "worker"} {
		s.MustAddView(schema.MustView(a, peer, nil, nil))
		s.MustAddView(schema.MustView(b, peer, nil, nil))
	}
	rules := []*rule.Rule{
		{Name: "mkA", Peer: "worker",
			Head: []rule.Update{rule.Insert{Rel: "A", Args: []query.Term{query.C("0")}}},
			Body: query.Query{query.KeyAtom{Neg: true, Rel: "A", Arg: query.C("0")}}},
		{Name: "mkB", Peer: "worker",
			Head: []rule.Update{rule.Insert{Rel: "B", Args: []query.Term{query.C("0")}}},
			Body: query.Query{
				query.Atom{Rel: "A", Args: []query.Term{query.C("0")}},
				query.KeyAtom{Neg: true, Rel: "B", Arg: query.C("0")}}},
	}
	p := program.MustNew(s, rules)
	// Every worker event is visible at boss → 1-bounded and transparent.
	if v, err := transparency.CheckBounded(p, "boss", 1, Options{PoolFresh: 1, MaxTuplesPerRelation: 1}); err != nil || v != nil {
		t.Fatalf("bounded: %v %v", v, err)
	}
	if v, err := transparency.CheckTransparent(p, "boss", 1, Options{PoolFresh: 1, MaxTuplesPerRelation: 1}); err != nil || v != nil {
		t.Fatalf("transparent: %v %v", v, err)
	}
	res, err := Synthesize(p, "boss", 1, Options{PoolFresh: 1, MaxTuplesPerRelation: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OmegaRules) != 2 {
		t.Fatalf("want ω-rules for mkA and mkB, got:\n%s", res.Program)
	}
	// Round-trip on the canonical run.
	r := program.NewRun(p)
	r.MustFireRule("mkA", nil)
	r.MustFireRule("mkB", nil)
	if _, err := MatchRun(res, r, "boss"); err != nil {
		t.Fatal(err)
	}
}
