package prov

import (
	"strings"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/faithful"
	"collabwf/internal/program"
	"collabwf/internal/workload"
)

func hiringRun(t *testing.T) *program.Run {
	t.Helper()
	p := workload.Hiring()
	r := program.NewRun(p)
	e := r.MustFireRule("clear", nil)
	cand := e.Updates()[0].Key
	r.MustFireRule("cfo_ok", map[string]data.Value{"x": cand})
	r.MustFireRule("approve", map[string]data.Value{"x": cand})
	r.MustFireRule("hire", map[string]data.Value{"x": cand})
	return r
}

func TestGraphEdges(t *testing.T) {
	g := Build(hiringRun(t), "sue")
	// hire(3) directly requires approve(2); approve requires clear and
	// cfo_ok; cfo_ok requires clear; clear requires nothing.
	if got := g.Direct(3); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Direct(3)=%v", got)
	}
	if got := g.Direct(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Direct(2)=%v", got)
	}
	if got := g.Direct(0); len(got) != 0 {
		t.Fatalf("Direct(0)=%v", got)
	}
}

// The transitive closure of the graph coincides with the faithful fixpoint
// of the singleton — on every event, for multiple peers and workloads.
func TestExplanationMatchesFixpoint(t *testing.T) {
	runs := []*program.Run{hiringRun(t)}
	if _, r := workload.Approval(); r != nil {
		runs = append(runs, r)
	}
	if _, r, err := workload.HittingSet(workload.HittingSetInstance{N: 3, Sets: [][]int{{0, 1}, {1, 2}}}); err == nil {
		runs = append(runs, r)
	}
	for _, r := range runs {
		for _, peer := range r.Prog.Peers() {
			g := Build(r, peer)
			a := faithful.NewAnalysis(r)
			for i := 0; i < r.Len(); i++ {
				want := faithful.Fixpoint(a, faithful.NewSeq(i), peer).Sorted()
				got := g.Explanation(i)
				if len(got) != len(want) {
					t.Fatalf("peer %s event %d: %v vs %v", peer, i, got, want)
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("peer %s event %d: %v vs %v", peer, i, got, want)
					}
				}
			}
		}
	}
}

func TestDependentsAndPeers(t *testing.T) {
	g := Build(hiringRun(t), "sue")
	// clear(0) is a direct requirement of cfo_ok(1) and approve(2).
	if got := g.Dependents(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Dependents(0)=%v", got)
	}
	peers := g.PeersInvolved(3)
	if len(peers) != 3 || peers[0] != "ceo" || peers[1] != "cfo" || peers[2] != "hr" {
		t.Fatalf("PeersInvolved(3)=%v", peers)
	}
}

func TestDOTRendering(t *testing.T) {
	g := Build(hiringRun(t), "sue")
	dot := g.DOT()
	for _, want := range []string{
		"digraph provenance",
		`e0 [shape=box`,     // clear is visible at sue
		`e2 [shape=ellipse`, // approve is not
		"e3 -> e2;",
		"e2 -> e0;",
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	sub := g.Subgraph(2)
	if strings.Contains(sub, "e3") {
		t.Fatalf("subgraph of approve must not mention hire:\n%s", sub)
	}
	if !strings.Contains(sub, "e2 -> e1;") {
		t.Fatalf("subgraph missing edge:\n%s", sub)
	}
}

// Deleted lifecycles produce forward edges: in the approval run, the
// deletion f's explanation includes the creation e, and g (re-creation)
// has no edge into the closed lifecycle.
func TestGraphAcrossLifecycles(t *testing.T) {
	_, r := workload.Approval()
	g := Build(r, "applicant")
	if got := g.Explanation(1); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Explanation(f)=%v", got)
	}
	if got := g.Explanation(3); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Explanation(h)=%v", got)
	}
}
