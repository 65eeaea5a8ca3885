package cond

import (
	"math/rand"
	"testing"

	"collabwf/internal/data"
)

var pos = map[data.Attr]int{"K": 0, "A": 1, "B": 2}

func TestEvalElementary(t *testing.T) {
	tup := data.Tuple{"k1", "x", "x"}
	cases := []struct {
		c    Condition
		want bool
	}{
		{True{}, true},
		{False{}, false},
		{EqConst{"A", "x"}, true},
		{EqConst{"A", "y"}, false},
		{EqConst{"A", data.Null}, false},
		{EqAttr{"A", "B"}, true},
		{EqAttr{"K", "A"}, false},
		{Not{EqConst{"A", "x"}}, false},
		{And{[]Condition{EqConst{"A", "x"}, EqAttr{"A", "B"}}}, true},
		{And{[]Condition{EqConst{"A", "x"}, EqConst{"A", "y"}}}, false},
		{Or{[]Condition{EqConst{"A", "y"}, EqAttr{"A", "B"}}}, true},
		{Or{nil}, false},
		{And{nil}, true},
	}
	for _, c := range cases {
		if got := c.c.Eval(pos, tup, nil); got != c.want {
			t.Errorf("Eval(%s)=%v want %v", c.c, got, c.want)
		}
	}
}

func TestEvalNullComparison(t *testing.T) {
	tup := data.Tuple{"k1", data.Null, "x"}
	if !(EqConst{"A", data.Null}).Eval(pos, tup, nil) {
		t.Fatal("A = null must hold for a ⊥ attribute")
	}
	if (EqConst{"B", data.Null}).Eval(pos, tup, nil) {
		t.Fatal("B = null must fail for a defined attribute")
	}
}

func TestEvalUnknownAttr(t *testing.T) {
	tup := data.Tuple{"k1", "x", "x"}
	if (EqConst{"Z", "x"}).Eval(pos, tup, nil) {
		t.Fatal("unknown attribute never matches")
	}
	if (EqAttr{"Z", "A"}).Eval(pos, tup, nil) {
		t.Fatal("unknown attribute never matches")
	}
}

func TestAttrsOf(t *testing.T) {
	c := And{[]Condition{EqConst{"B", "x"}, Not{EqAttr{"A", "K"}}}}
	got := AttrsOf(c)
	want := []data.Attr{"A", "B", "K"}
	if len(got) != len(want) {
		t.Fatalf("AttrsOf=%v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AttrsOf=%v want %v", got, want)
		}
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		c    Condition
		want string
	}{
		{EqConst{"A", "x"}, `A = "x"`},
		{EqConst{"A", data.Null}, "A = null"},
		{Not{EqConst{"A", "x"}}, `A != "x"`},
		{Not{EqAttr{"A", "B"}}, "A != B"},
		{And{nil}, "true"},
		{Or{nil}, "false"},
		{And{[]Condition{EqAttr{"A", "B"}, EqConst{"K", "1"}}}, `A = B and K = "1"`},
		{Not{And{[]Condition{EqAttr{"A", "B"}}}}, "not (A = B)"},
	}
	for _, c := range cases {
		if got := c.c.String(); got != c.want {
			t.Errorf("String()=%q want %q", got, c.want)
		}
	}
}

func TestSatisfiableBasics(t *testing.T) {
	cases := []struct {
		name string
		c    Condition
		want bool
	}{
		{"true", True{}, true},
		{"false", False{}, false},
		{"eq const", EqConst{"A", "x"}, true},
		{"conflicting consts", And{[]Condition{EqConst{"A", "x"}, EqConst{"A", "y"}}}, false},
		{"eq chain conflict", And{[]Condition{EqAttr{"A", "B"}, EqConst{"A", "x"}, EqConst{"B", "y"}}}, false},
		{"eq chain ok", And{[]Condition{EqAttr{"A", "B"}, EqConst{"A", "x"}, EqConst{"B", "x"}}}, true},
		{"diseq self", Not{EqAttr{"A", "A"}}, false},
		{"diseq free", Not{EqAttr{"A", "B"}}, true},
		{"diseq merged", And{[]Condition{EqAttr{"A", "B"}, Not{EqAttr{"A", "B"}}}}, false},
		{"diseq via const", And{[]Condition{EqConst{"A", "x"}, EqConst{"B", "x"}, Not{EqAttr{"A", "B"}}}}, false},
		{"neq const sat", And{[]Condition{Not{EqConst{"A", "x"}}, Not{EqConst{"A", "y"}}}}, true},
		{"or rescue", Or{[]Condition{False{}, EqConst{"A", "x"}}}, true},
		{"null const", And{[]Condition{EqConst{"A", data.Null}, Not{EqConst{"A", data.Null}}}}, false},
		{"null vs other const", And{[]Condition{EqConst{"A", data.Null}, EqConst{"A", "x"}}}, false},
	}
	for _, c := range cases {
		if got := Satisfiable(c.c); got != c.want {
			t.Errorf("%s: Satisfiable=%v want %v", c.name, got, c.want)
		}
	}
}

func TestSatisfiableTransitiveConflict(t *testing.T) {
	// A=B, B=C, A="x", C="y" is unsatisfiable only through transitivity.
	c := And{[]Condition{
		EqAttr{"A", "B"}, EqAttr{"B", "C"},
		EqConst{"A", "x"}, EqConst{"C", "y"},
	}}
	if Satisfiable(c) {
		t.Fatal("transitive constant conflict must be unsatisfiable")
	}
}

func TestImpliesAndEquivalent(t *testing.T) {
	a := And{[]Condition{EqConst{"A", "x"}, EqAttr{"A", "B"}}}
	b := EqConst{"B", "x"}
	if !Implies(a, b) {
		t.Fatal("A=x and A=B implies B=x")
	}
	if Implies(b, a) {
		t.Fatal("B=x does not imply A=x and A=B")
	}
	if !Equivalent(EqAttr{"A", "B"}, EqAttr{"B", "A"}) {
		t.Fatal("A=B equivalent to B=A")
	}
	if !Valid(Or{[]Condition{EqConst{"A", "x"}, Not{EqConst{"A", "x"}}}}) {
		t.Fatal("excluded middle is valid")
	}
}

func TestNNFDoubleNegation(t *testing.T) {
	c := Not{Not{EqConst{"A", "x"}}}
	n := NNF(c)
	if _, ok := n.(EqConst); !ok {
		t.Fatalf("NNF(¬¬e) = %T, want EqConst", n)
	}
}

func TestDNFDeMorgan(t *testing.T) {
	// ¬(A=x ∧ B=y) → (A≠x) ∨ (B≠y): 2 clauses of 1 literal.
	c := Not{And{[]Condition{EqConst{"A", "x"}, EqConst{"B", "y"}}}}
	clauses := DNF(c)
	if len(clauses) != 2 {
		t.Fatalf("DNF gave %d clauses", len(clauses))
	}
	for _, cl := range clauses {
		if len(cl) != 1 || !cl[0].Neg {
			t.Fatalf("unexpected clause %v", cl)
		}
	}
}

func TestSimplify(t *testing.T) {
	c := And{[]Condition{True{}, Or{[]Condition{False{}, EqConst{"A", "x"}}}}}
	s := Simplify(c)
	if _, ok := s.(EqConst); !ok {
		t.Fatalf("Simplify=%T (%s)", s, s)
	}
	if _, ok := Simplify(And{[]Condition{True{}, False{}}}).(False); !ok {
		t.Fatal("true∧false simplifies to false")
	}
	if _, ok := Simplify(Not{Not{EqAttr{"A", "B"}}}).(EqAttr); !ok {
		t.Fatal("¬¬e simplifies to e")
	}
}

// randomCond builds a random condition over attrs {K,A,B} and constants
// {x,y} with bounded depth.
func randomCond(r *rand.Rand, depth int) Condition {
	attrs := []data.Attr{"K", "A", "B"}
	consts := []data.Value{"x", "y"}
	if depth == 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return EqConst{attrs[r.Intn(len(attrs))], consts[r.Intn(len(consts))]}
		}
		return EqAttr{attrs[r.Intn(len(attrs))], attrs[r.Intn(len(attrs))]}
	}
	switch r.Intn(3) {
	case 0:
		return Not{randomCond(r, depth-1)}
	case 1:
		return And{[]Condition{randomCond(r, depth-1), randomCond(r, depth-1)}}
	default:
		return Or{[]Condition{randomCond(r, depth-1), randomCond(r, depth-1)}}
	}
}

// Property: if a random tuple over a small value universe satisfies c, then
// Satisfiable(c) must be true (soundness of the SAT procedure), and NNF/DNF
// preserve evaluation.
func TestSatSoundnessAndNormalFormsAgainstEval(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	vals := []data.Value{"x", "y", "z", data.Null}
	for trial := 0; trial < 500; trial++ {
		c := randomCond(r, 3)
		n := NNF(c)
		sat := false
		for i := 0; i < 27; i++ {
			tup := data.Tuple{vals[r.Intn(len(vals))], vals[r.Intn(len(vals))], vals[r.Intn(len(vals))]}
			e1, e2 := c.Eval(pos, tup, nil), n.Eval(pos, tup, nil)
			if e1 != e2 {
				t.Fatalf("NNF changed semantics of %s on %v", c, tup)
			}
			if e1 {
				sat = true
			}
		}
		if sat && !Satisfiable(c) {
			t.Fatalf("condition %s has a witness but Satisfiable says no", c)
		}
		// Simplify preserves semantics.
		s := Simplify(c)
		for i := 0; i < 9; i++ {
			tup := data.Tuple{vals[r.Intn(len(vals))], vals[r.Intn(len(vals))], vals[r.Intn(len(vals))]}
			if c.Eval(pos, tup, nil) != s.Eval(pos, tup, nil) {
				t.Fatalf("Simplify changed semantics of %s", c)
			}
		}
	}
}

// Property: DNF clauses evaluate like the original on random tuples.
func TestDNFSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	vals := []data.Value{"x", "y", "z"}
	for trial := 0; trial < 300; trial++ {
		c := randomCond(r, 3)
		clauses := DNF(c)
		for i := 0; i < 9; i++ {
			tup := data.Tuple{vals[r.Intn(len(vals))], vals[r.Intn(len(vals))], vals[r.Intn(len(vals))]}
			want := c.Eval(pos, tup, nil)
			got := false
			for _, cl := range clauses {
				all := true
				for _, l := range cl {
					if !l.Cond().Eval(pos, tup, nil) {
						all = false
						break
					}
				}
				if all {
					got = true
					break
				}
			}
			if got != want {
				t.Fatalf("DNF changed semantics of %s on %v", c, tup)
			}
		}
	}
}
