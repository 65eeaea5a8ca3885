package bench

import (
	"math"
	"strings"
	"testing"

	"collabwf/internal/program"
	"collabwf/internal/workload"
)

// Every experiment runs green in quick mode and renders a non-empty table.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(true)
			if err != nil {
				t.Fatal(err)
			}
			if tbl.ID != e.ID {
				t.Fatalf("table ID %q", tbl.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			text := tbl.Render()
			if !strings.Contains(text, tbl.Claim) || !strings.Contains(text, tbl.Columns[0]) {
				t.Fatalf("render incomplete:\n%s", text)
			}
		})
	}
}

// The explainer stores the requirement graph, not each event's closure:
// the heap an explainer of every peer retains grows at most 2.2× per
// doubling from 1000 to 4000 events, on the revision chain (each event
// depends on the whole chain before it) and on crowdsourcing.
func TestExplainerHeapLinearInLength(t *testing.T) {
	crowd, err := workload.Crowdsourcing(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		prog *program.Program
		next func(int) workload.Firing
	}{
		{"crowdsourcing", crowd, workload.CrowdFiring},
		{"revisions", workload.Revisions(), workload.RevisionFiring},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := program.NewRun(tc.prog)
			var mb [2]float64
			for i, n := range [2]int{1000, 4000} {
				for run.Len() < n {
					f := tc.next(run.Len())
					if _, err := run.FireRule(f.Rule, f.Bindings); err != nil {
						t.Fatal(err)
					}
				}
				mb[i], _ = explainerFootprint(run, n)
			}
			bound := math.Pow(e21HeapPerDoubling, 2)
			t.Logf("retained explainer heap: %.2f MB at 1000 events, %.2f MB at 4000", mb[0], mb[1])
			if mb[1] > bound*mb[0] {
				t.Errorf("retained explainer heap grew %.2f× from 1000 to 4000 events, want ≤ %.2f×", mb[1]/mb[0], bound)
			}
		})
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tbl := &Table{
		ID: "T", Title: "test", Claim: "c",
		Columns: []string{"a", "long-column"},
	}
	tbl.AddRow("wide-cell", "x")
	tbl.Notef("n=%d", 7)
	out := tbl.Render()
	if !strings.Contains(out, "wide-cell") || !strings.Contains(out, "note: n=7") {
		t.Fatalf("render=%q", out)
	}
	lines := strings.Split(out, "\n")
	// Header and row must have the same prefix width for column 2.
	var header, row string
	for _, l := range lines {
		if strings.HasPrefix(l, "a ") {
			header = l
		}
		if strings.HasPrefix(l, "wide-cell") {
			row = l
		}
	}
	if strings.Index(header, "long-column") != strings.Index(row, "x") {
		t.Fatalf("misaligned:\n%s", out)
	}
}
