package trace

import (
	"bytes"
	"strings"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/parse"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/workload"
)

func TestRoundTripApproval(t *testing.T) {
	p, r := workload.Approval()
	tr := FromRun("Approval", r)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := back.Replay(p)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Len() != r.Len() || !replayed.Current().Equal(r.Current()) {
		t.Fatal("replay must reproduce the run")
	}
	for i := 0; i < r.Len(); i++ {
		if !replayed.Event(i).Equal(r.Event(i)) {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestRoundTripWithInitialInstanceAndNull(t *testing.T) {
	p := workload.Hiring()
	init := schema.NewInstance(p.Schema.DB)
	init.MustPut("Cleared", data.Tuple{"sue"})
	init.MustPut("CfoOK", data.Tuple{"sue"})
	r := program.NewRunFrom(p, init)
	r.MustFireRule("approve", map[string]data.Value{"x": "sue"})

	tr := FromRun("Hiring", r)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := back.Replay(p)
	if err != nil {
		t.Fatal(err)
	}
	if !replayed.Current().Equal(r.Current()) {
		t.Fatal("replay with initial instance failed")
	}
}

func TestNullValueSurvives(t *testing.T) {
	// A ⊥ value inside a valuation must round-trip.
	src := `
workflow W
relation R(K, A)
peer p { view R(K, A) }
rule mk at p: +R(k, null) :- true
rule fill at p: +R(k, "v") :- R(k, null)
`
	spec := mustParse(t, src)
	r := program.NewRun(spec)
	e, err := r.FireRule("mk", nil)
	if err != nil {
		t.Fatal(err)
	}
	k := e.Updates()[0].Key
	if _, err := r.FireRule("fill", map[string]data.Value{"k": k}); err != nil {
		t.Fatal(err)
	}
	tr := FromRun("W", r)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := back.Replay(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := replayed.Current().Get("R", k)
	if !got.Equal(data.Tuple{k, "v"}) {
		t.Fatalf("replayed tuple %v", got)
	}
}

func TestTamperedTracesRejected(t *testing.T) {
	p, r := workload.Approval()
	base := FromRun("Approval", r)

	// Unknown rule.
	bad := *base
	bad.Events = append([]EventRecord{}, base.Events...)
	bad.Events[0] = EventRecord{Rule: "nope"}
	if _, err := bad.Replay(p); err == nil {
		t.Fatal("unknown rule must be rejected")
	}
	// Reordered events breaking applicability (delete before insert).
	bad2 := *base
	bad2.Events = []EventRecord{base.Events[1], base.Events[0]}
	if _, err := bad2.Replay(p); err == nil {
		t.Fatal("inapplicable reordering must be rejected")
	}
	// Bad initial fact.
	bad3 := *base
	bad3.Initial = []Fact{{Rel: "Nope", Tuple: []string{"x"}}}
	if _, err := bad3.Replay(p); err == nil {
		t.Fatal("unknown relation in initial instance must be rejected")
	}
	// Corrupt JSON.
	if _, err := Read(strings.NewReader("{")); err == nil {
		t.Fatal("corrupt JSON must be rejected")
	}
}

func TestTraceIsDeterministic(t *testing.T) {
	_, r := workload.Approval()
	var a, b bytes.Buffer
	if err := FromRun("A", r).Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := FromRun("A", r).Write(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("trace encoding must be deterministic")
	}
}

func mustParse(t *testing.T, src string) *program.Program {
	t.Helper()
	spec, err := parse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return spec.Program
}
