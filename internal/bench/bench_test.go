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
// and the lifecycle table are counted exactly at 1000, 2000 and 4000
// events: modification edges, key edges and right boundaries, and the
// table's entries and bytes, grow in proportion to the run, whatever the
// heap's allocator slack.
func TestExplainerHeapLinearInLength(t *testing.T) {
	crowd, err := workload.Crowdsourcing(2)
	if err != nil {
		t.Fatal(err)
	}
	sizes := [3]int{1000, 2000, 4000}
	type stored struct{ edges, keys, rights, lifecycles, tableBytes int }
	for _, tc := range []struct {
		name string
		prog *program.Program
		next func(int) workload.Firing
		want [3]stored
	}{
		// Crowdsourcing, over all its peers: no event fills an attribute
		// of a tuple an earlier event created, so no modification edge;
		// 2.43 key edges, 0.14 right boundaries and 1.14 lifecycles (40
		// bytes each) per event at every size.
		{"crowdsourcing", crowd, workload.CrowdFiring, [3]stored{
			{0, 2429, 143, 1143, 45720}, {0, 4857, 285, 2286, 91440}, {0, 9715, 571, 4572, 182880}}},
		// The revision chain: each revision is one lifecycle, and its keys
		// are its own and its parent's, whose left boundary is the edge
		// to the parent; no fills and no deletions.
		{"revisions", workload.Revisions(), workload.RevisionFiring, [3]stored{
			{0, 1999, 0, 1000, 40000}, {0, 3999, 0, 2000, 80000}, {0, 7999, 0, 4000, 160000}}},
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
				m := faithful.NewMaintainerAt(run, n, run.Prog.Peers()...)
				var got stored
				got.edges, got.keys, got.rights = m.Stored()
				got.lifecycles, got.tableBytes = m.LifecycleTable()
				t.Logf("%d events: %d modification edges, %d key edges (%.2f per event), %d right boundaries (%.2f per event), %d lifecycles in %d bytes",
					n, got.edges, got.keys, float64(got.keys)/float64(n), got.rights, float64(got.rights)/float64(n), got.lifecycles, got.tableBytes)
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
