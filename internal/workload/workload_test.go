package workload

import (
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/program"
)

func TestHiringPrograms(t *testing.T) {
	for _, p := range []*program.Program{Hiring(), HiringTransparentNoCfo()} {
		if err := p.Schema.CheckLossless(); err != nil {
			t.Fatalf("hiring schema must be lossless: %v", err)
		}
		if !p.IsNormalForm() {
			t.Fatal("hiring programs are in normal form")
		}
	}
}

func TestApprovalRunShape(t *testing.T) {
	p, r := Approval()
	if r.Len() != 4 {
		t.Fatalf("run length %d", r.Len())
	}
	// After e f g h: Ok and Approval both present.
	if !r.Current().HasKey("Ok", PropKey) || !r.Current().HasKey("Approval", PropKey) {
		t.Fatalf("final instance %s", r.Current())
	}
	// Only h is visible at the applicant.
	vis := r.VisibleEvents("applicant")
	if len(vis) != 1 || vis[0] != 3 {
		t.Fatalf("applicant sees %v", vis)
	}
	if err := p.Schema.CheckLossless(); err != nil {
		t.Fatal(err)
	}
}

func TestHittingSetRun(t *testing.T) {
	inst := HittingSetInstance{N: 3, Sets: [][]int{{0, 1}, {2}}}
	p, r, err := HittingSet(inst)
	if err != nil {
		t.Fatal(err)
	}
	// n (a) + 3 (b: two members of set 0, one of set 1) + 1 (c).
	if r.Len() != 3+3+1 {
		t.Fatalf("run length %d", r.Len())
	}
	if !r.Current().HasKey("OK", PropKey) {
		t.Fatal("OK must be derived")
	}
	if got := r.VisibleEvents("p"); len(got) != 1 || got[0] != r.Len()-1 {
		t.Fatalf("p sees %v", got)
	}
	if len(p.RulesAt("q")) != r.Len() {
		t.Fatalf("all rules belong to q")
	}
	if _, _, err := HittingSet(HittingSetInstance{N: 1, Sets: [][]int{{}}}); err == nil {
		t.Fatal("empty set must be rejected")
	}
}

func TestChainRun(t *testing.T) {
	for _, d := range []int{1, 4} {
		_, r, err := Chain(d)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != d {
			t.Fatalf("chain(%d) run length %d", d, r.Len())
		}
		vis := r.VisibleEvents("p")
		if len(vis) != 1 || vis[0] != d-1 {
			t.Fatalf("p sees %v", vis)
		}
	}
	if _, _, err := Chain(0); err == nil {
		t.Fatal("depth 0 must be rejected")
	}
}

func TestWideRun(t *testing.T) {
	_, r, err := Wide(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 13 {
		t.Fatalf("run length %d", r.Len())
	}
	if got := r.VisibleEvents("p"); len(got) != 1 {
		t.Fatalf("p sees %v", got)
	}
	if _, _, err := Wide(0, 1); err == nil {
		t.Fatal("bad parameters must be rejected")
	}
}

func TestCNFEvalAndSat(t *testing.T) {
	// (x0 ∨ ¬x1) ∧ (¬x0)
	f := CNF{{{Var: 0}, {Var: 1, Neg: true}}, {{Var: 0, Neg: true}}}
	if f.Eval([]bool{true, true}) {
		t.Fatal("all-true must falsify ¬x0")
	}
	if !f.Eval([]bool{false, false}) {
		t.Fatal("(f,f) satisfies")
	}
	if !f.Satisfiable(2) {
		t.Fatal("formula is satisfiable")
	}
	unsat := CNF{{{Var: 0}}, {{Var: 0, Neg: true}}}
	if unsat.Satisfiable(1) {
		t.Fatal("x ∧ ¬x is unsatisfiable")
	}
}

func TestFormulaRun(t *testing.T) {
	f := CNF{{{Var: 0, Neg: true}}, {{Var: 1}}} // ¬x0 ∧ x1: sat, false all-true
	p, r, err := Formula(2, f)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("run length %d", r.Len())
	}
	// p sees key 0 only after the q event.
	vis := r.VisibleEvents("p")
	if len(vis) != 1 || vis[0] != 2 {
		t.Fatalf("p sees %v", vis)
	}
	if err := p.Schema.CheckLossless(); err != nil {
		t.Fatal(err)
	}
	// φ true under all-true must be rejected.
	if _, _, err := Formula(1, CNF{{{Var: 0}}}); err == nil {
		t.Fatal("all-true-satisfying formula must be rejected")
	}
	if _, _, err := Formula(1, CNF{{{Var: 7}}}); err == nil {
		t.Fatal("out-of-range literal must be rejected")
	}
}

func TestCrowdsourcingFlow(t *testing.T) {
	p, err := Crowdsourcing(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Schema.CheckLossless(); err != nil {
		t.Fatal(err)
	}
	r := program.NewRun(p)
	post := r.MustFireRule("post", nil)
	task := post.Updates()[0].Key
	r.MustFireRule("claim0", map[string]data.Value{"t": task})
	r.MustFireRule("submit0", map[string]data.Value{"t": task})
	r.MustFireRule("accept", map[string]data.Value{"t": task, "w": "w0"})
	r.MustFireRule("pay", map[string]data.Value{"t": task, "w": "w0"})
	if r.Current().HasKey("Open", task) {
		t.Fatal("accept must close the task")
	}
	if r.Current().Count("Payment") != 1 {
		t.Fatal("payment missing")
	}
	// Worker w1 never sees w0's claim or payment.
	vi := r.ViewAt(r.Len()-1, "w1")
	if len(vi.Tuples("Claim")) != 0 || len(vi.Tuples("Payment")) != 0 {
		t.Fatalf("w1 sees foreign data: %s", vi)
	}
	// Worker w0 sees their payment.
	vi0 := r.ViewAt(r.Len()-1, "w0")
	if len(vi0.Tuples("Payment")) != 1 {
		t.Fatalf("w0 must see the payment: %s", vi0)
	}
}
