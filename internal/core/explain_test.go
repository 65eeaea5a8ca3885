package core

import (
	"strings"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/program"
	"collabwf/internal/workload"
)

func TestExplainerApproval(t *testing.T) {
	_, r := workload.Approval()
	ex := NewExplainer(r, "applicant")
	if got := ex.MinimalScenario(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("MinimalScenario=%v, want [2 3]", got)
	}
	// Event 1 (delete ok) is explained by its lifecycle boundaries.
	if got := ex.ExplainEvent(1); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("ExplainEvent(1)=%v", got)
	}
	sub, err := ex.ScenarioRun()
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 2 {
		t.Fatalf("scenario run length %d", sub.Len())
	}
}

func TestExplainerIncrementalSync(t *testing.T) {
	p := workload.Hiring()
	r := program.NewRun(p)
	ex := NewExplainer(r, "sue")
	e := r.MustFireRule("clear", nil)
	cand := e.Updates()[0].Key
	ex.Sync()
	if got := ex.MinimalScenario(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("after clear: %v", got)
	}
	r.MustFireRule("cfo_ok", map[string]data.Value{"x": cand})
	r.MustFireRule("approve", map[string]data.Value{"x": cand})
	ex.Sync()
	// Nothing new visible: scenario unchanged.
	if got := ex.MinimalScenario(); len(got) != 1 {
		t.Fatalf("after silent events: %v", got)
	}
	r.MustFireRule("hire", map[string]data.Value{"x": cand})
	ex.Sync()
	if got := ex.MinimalScenario(); len(got) != 4 {
		t.Fatalf("after hire: %v", got)
	}
}

// An explainer synced to a prefix replays the scenario of that prefix,
// not of the whole run: events appended after it do not leak in.
func TestScenarioRunCoversSyncedPrefix(t *testing.T) {
	p := workload.Hiring()
	r := program.NewRun(p)
	e := r.MustFireRule("clear", nil)
	cand := e.Updates()[0].Key
	r.MustFireRule("cfo_ok", map[string]data.Value{"x": cand})
	r.MustFireRule("approve", map[string]data.Value{"x": cand})
	r.MustFireRule("hire", map[string]data.Value{"x": cand})
	ex := NewExplainerAt(r, "sue", 2)
	if got := ex.MinimalScenario(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("MinimalScenario at 2 of 4 events = %v, want [0]", got)
	}
	sub, err := ex.ScenarioRun()
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 1 || sub.Event(0).Rule.Name != "clear" {
		t.Fatalf("ScenarioRun at 2 of 4 events has %d events, want the one clear", sub.Len())
	}
}

func TestReportRendering(t *testing.T) {
	p := workload.Hiring()
	r := program.NewRun(p)
	e := r.MustFireRule("clear", nil)
	cand := e.Updates()[0].Key
	r.MustFireRule("cfo_ok", map[string]data.Value{"x": cand})
	r.MustFireRule("approve", map[string]data.Value{"x": cand})
	r.MustFireRule("hire", map[string]data.Value{"x": cand})
	ex := NewExplainer(r, "sue")
	rep := ex.Report()
	if len(rep.Transitions) != 2 {
		t.Fatalf("transitions=%d", len(rep.Transitions))
	}
	hire := rep.Transitions[1]
	if hire.Event.Rule != "hire" || len(hire.Because) != 2 {
		t.Fatalf("hire transition=%+v", hire)
	}
	text := rep.String()
	for _, want := range []string{
		"explanation for peer sue",
		"observed #0 clear by ω (hr)",
		"observed #3 hire by ω (hr)",
		"because #1 cfo_ok by cfo (invisible)",
		"because #2 approve by ceo (invisible)",
		"created Hire(" + string(cand) + ")",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
	// Each event is explained at most once across transitions.
	if strings.Count(text, "because #1 ") != 1 {
		t.Fatalf("event explained twice:\n%s", text)
	}
}

func TestReportOnModifications(t *testing.T) {
	// A run with a Modified effect renders a "set" change.
	pr, _, err := workload.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	r := program.NewRun(pr)
	r.MustFireRule("step1", nil)
	r.MustFireRule("step2", nil)
	ex := NewExplainer(r, "p")
	rep := ex.Report()
	if len(rep.Transitions) != 1 {
		t.Fatalf("transitions=%v", rep.Transitions)
	}
	if rep.Transitions[0].Because[0].Rule != "step1" {
		t.Fatalf("report=%s", rep)
	}
}

func TestReportDescribesDeletions(t *testing.T) {
	_, r := workload.Approval()
	// The cto sees everything: its report covers the deletion f.
	rep := NewExplainer(r, "cto").Report()
	text := rep.String()
	if !strings.Contains(text, "deleted Ok(0)") {
		t.Fatalf("report must describe the deletion:\n%s", text)
	}
	// Own events are labeled without the ω marker.
	if !strings.Contains(text, "observed #0 e by cto:") {
		t.Fatalf("own event mislabeled:\n%s", text)
	}
}
