package bench

import (
	"math"
	"strings"
	"testing"

	"collabwf/internal/faithful"
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
// depends on the whole chain before it) and on crowdsourcing. The graph
// itself is counted exactly at 1000, 2000 and 4000 events: past edges and
// right boundaries grow in proportion to the run, whatever the heap's
// allocator slack.
func TestExplainerHeapLinearInLength(t *testing.T) {
	crowd, err := workload.Crowdsourcing(2)
	if err != nil {
		t.Fatal(err)
	}
	sizes := [3]int{1000, 2000, 4000}
	type stored struct{ edges, rights int }
	for _, tc := range []struct {
		name string
		prog *program.Program
		next func(int) workload.Firing
		want [3]stored
	}{
		// Crowdsourcing, over all its peers: 5.14 past edges and 0.14
		// right boundaries per event at every size.
		{"crowdsourcing", crowd, workload.CrowdFiring, [3]stored{{5144, 143}, {10284, 285}, {20572, 571}}},
		// The revision chain: one edge per revision, to its parent; no
		// deletions, so no right boundary.
		{"revisions", workload.Revisions(), workload.RevisionFiring, [3]stored{{999, 0}, {1999, 0}, {3999, 0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := program.NewRun(tc.prog)
			var mb [3]float64
			for i, n := range sizes {
				for run.Len() < n {
					f := tc.next(run.Len())
					if _, err := run.FireRule(f.Rule, f.Bindings); err != nil {
						t.Fatal(err)
					}
				}
				mb[i], _ = explainerFootprint(run, n)
				var got stored
				got.edges, got.rights = faithful.NewMaintainerAt(run, n, run.Prog.Peers()...).Stored()
				t.Logf("%d events: %d past edges (%.2f per event), %d right boundaries (%.2f per event)",
					n, got.edges, float64(got.edges)/float64(n), got.rights, float64(got.rights)/float64(n))
				if got != tc.want[i] {
					t.Errorf("%d events: stored %+v, want %+v", n, got, tc.want[i])
				}
			}
			bound := math.Pow(e21HeapPerDoubling, 2)
			t.Logf("retained explainer heap: %.2f MB at 1000 events, %.2f MB at 2000, %.2f MB at 4000", mb[0], mb[1], mb[2])
			if mb[2] > bound*mb[0] {
				t.Errorf("retained explainer heap grew %.2f× from 1000 to 4000 events, want ≤ %.2f×", mb[2]/mb[0], bound)
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
