package scenario

import (
	"errors"
	"testing"

	"collabwf/internal/program"
	"collabwf/internal/view"
	"collabwf/internal/workload"
)

func TestReplayFullRun(t *testing.T) {
	_, r := workload.Approval()
	all := []int{0, 1, 2, 3}
	sub, err := Replay(r, all)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 4 || !sub.Current().Equal(r.Current()) {
		t.Fatal("full replay must reproduce the run")
	}
}

func TestReplayRejectsBadIndices(t *testing.T) {
	_, r := workload.Approval()
	if _, err := Replay(r, []int{1, 0}); err == nil {
		t.Fatal("unordered indices must fail")
	}
	if _, err := Replay(r, []int{0, 0}); err == nil {
		t.Fatal("duplicate indices must fail")
	}
	if _, err := Replay(r, []int{99}); err == nil {
		t.Fatal("out-of-range index must fail")
	}
}

func TestReplayRejectsNonSubrun(t *testing.T) {
	_, r := workload.Approval()
	// Event 1 (f: delete Ok) without event 0 (e: insert Ok) is not a run.
	if IsSubrun(r, []int{1, 2, 3}) {
		t.Fatal("f without e is not a subrun")
	}
	// Event 3 (h: approval :- Ok) alone is not a run.
	if IsSubrun(r, []int{3}) {
		t.Fatal("h alone is not a subrun")
	}
}

// Example 4.2: both e·h and g·h are scenarios for the applicant; e·f·g·h is
// one trivially.
func TestApprovalScenarios(t *testing.T) {
	_, r := workload.Approval()
	cases := []struct {
		name    string
		indices []int
		want    bool
	}{
		{"full run", []int{0, 1, 2, 3}, true},
		{"e,h (misleading but valid)", []int{0, 3}, true},
		{"g,h (faithful)", []int{2, 3}, true},
		{"h alone (not a subrun)", []int{3}, false},
		{"e,f,g (missing h, view differs)", []int{0, 1, 2}, false},
		{"e,g (insert over existing key: g's guard fails)", []int{0, 2}, false},
	}
	for _, c := range cases {
		if got := IsScenario(r, "applicant", c.indices); got != c.want {
			t.Errorf("%s: IsScenario=%v want %v", c.name, got, c.want)
		}
	}
}

func TestMinimumOnApproval(t *testing.T) {
	_, r := workload.Approval()
	min, err := Minimum(r, "applicant", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(min) != 2 {
		t.Fatalf("minimum scenario %v, want length 2", min)
	}
	// Both {0,3} and {2,3} have length 2; the search finds {0,3} first.
	if min[1] != 3 {
		t.Fatalf("minimum scenario must end with h: %v", min)
	}
}

// Theorem 3.3 reduction: minimum scenario length = |min hitting set| + k + 1.
func TestMinimumHittingSet(t *testing.T) {
	inst := workload.HittingSetInstance{
		N: 4,
		// {0,1}, {1,2}, {2,3}: minimum hitting set {1,2} has size 2.
		Sets: [][]int{{0, 1}, {1, 2}, {2, 3}},
	}
	_, r, err := workload.HittingSet(inst)
	if err != nil {
		t.Fatal(err)
	}
	min, err := Minimum(r, "p", Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantLen := 2 + len(inst.Sets) + 1
	if len(min) != wantLen {
		t.Fatalf("minimum scenario length %d want %d (indices %v)", len(min), wantLen, min)
	}
}

func TestMinimumRespectsBudget(t *testing.T) {
	inst := workload.HittingSetInstance{N: 4, Sets: [][]int{{0, 1}, {2, 3}}}
	_, r, err := workload.HittingSet(inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Minimum(r, "p", Options{MaxChoice: 2}); !errors.Is(err, ErrBudget) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
	if _, err := Minimum(r, "p", Options{MaxChecks: 1}); !errors.Is(err, ErrBudget) {
		t.Fatalf("expected ErrBudget on MaxChecks, got %v", err)
	}
}

func TestGreedyIsScenarioAndOneMinimal(t *testing.T) {
	inst := workload.HittingSetInstance{
		N:    3,
		Sets: [][]int{{0, 1}, {1, 2}},
	}
	_, r, err := workload.HittingSet(inst)
	if err != nil {
		t.Fatal(err)
	}
	g := Greedy(r, "p")
	if !IsScenario(r, "p", g) {
		t.Fatal("greedy result must be a scenario")
	}
	// 1-minimality: removing any single invisible event breaks it.
	visible := map[int]bool{}
	for _, i := range r.VisibleEvents("p") {
		visible[i] = true
	}
	for pos, i := range g {
		if visible[i] {
			continue
		}
		candidate := append(append([]int{}, g[:pos]...), g[pos+1:]...)
		if IsScenario(r, "p", candidate) {
			t.Fatalf("greedy result not 1-minimal: event %d removable", i)
		}
	}
	// Greedy is at least as long as the true minimum.
	min, err := Minimum(r, "p", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g) < len(min) {
		t.Fatalf("greedy %d shorter than minimum %d", len(g), len(min))
	}
}

func TestIsMinimal(t *testing.T) {
	_, r := workload.Approval()
	// {2,3} = g·h is a minimal scenario for the applicant.
	minimal, err := IsMinimal(r, "applicant", []int{2, 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !minimal {
		t.Fatal("g·h is minimal")
	}
	// The full run is not minimal (e·h is a strict sub-scenario).
	full, err := IsMinimal(r, "applicant", []int{0, 1, 2, 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full {
		t.Fatal("the full run is not a minimal scenario")
	}
	// A non-scenario is rejected.
	if _, err := IsMinimal(r, "applicant", []int{3}, Options{}); err == nil {
		t.Fatal("non-scenario must be rejected")
	}
}

func TestScenarioPreservesOwnEvents(t *testing.T) {
	// For a peer that performs events, scenarios must keep them: drop the
	// assistant's own event h and the view changes.
	_, r := workload.Approval()
	if IsScenario(r, "assistant", []int{0, 1, 2}) {
		t.Fatal("dropping the peer's own event cannot give a scenario")
	}
	// The full run is always a scenario for everyone.
	for _, p := range []string{"cto", "ceo", "assistant", "applicant"} {
		if !IsScenario(r, program.NewRun(r.Prog).Prog.Schema.Peers()[0], []int{0, 1, 2, 3}) && p == "" {
			t.Fatal("unreachable")
		}
	}
	full := []int{0, 1, 2, 3}
	sub, err := Replay(r, full)
	if err != nil {
		t.Fatal(err)
	}
	if !view.Of(r, "assistant").Equal(view.Of(sub, "assistant")) {
		t.Fatal("identity replay must be observationally equal")
	}
}

// Backward greedy removal yields a 1-minimal scenario on a chain of
// overlapping sets.
func TestGreedyBackwardIsOneMinimal(t *testing.T) {
	inst := workload.HittingSetInstance{N: 4, Sets: [][]int{{0, 1}, {1, 2}, {2, 3}}}
	_, r, err := workload.HittingSet(inst)
	if err != nil {
		t.Fatal(err)
	}
	g := Greedy(r, "p")
	if !IsScenario(r, "p", g) {
		t.Fatal("not a scenario")
	}
	visible := map[int]bool{}
	for _, i := range r.VisibleEvents("p") {
		visible[i] = true
	}
	for pos, i := range g {
		if visible[i] {
			continue
		}
		candidate := append(append([]int{}, g[:pos]...), g[pos+1:]...)
		if IsScenario(r, "p", candidate) {
			t.Fatalf("not 1-minimal (event %d removable)", i)
		}
	}
}
