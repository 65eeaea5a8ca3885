package rule

import (
	"slices"
	"strings"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/query"
	"collabwf/internal/schema"
)

// fixture: Assign(K, Emp, Proj), Replace(K, Old, New); peer hr sees both
// fully. This mirrors the HR replacement example of Section 2.
func fixture(t *testing.T) *schema.Collaborative {
	t.Helper()
	assign := schema.MustRelation("Assign", "Emp", "Proj")
	repl := schema.MustRelation("Replace", "Old", "New")
	db := schema.MustDatabase(assign, repl)
	s := schema.NewCollaborative(db)
	s.MustAddView(schema.MustView(assign, "hr", []data.Attr{"Emp", "Proj"}, nil))
	s.MustAddView(schema.MustView(repl, "hr", []data.Attr{"Old", "New"}, nil))
	return s
}

// replaceRule is the paper's example rule: replace employee x by x' on
// project y.
func replaceRule() *Rule {
	return &Rule{
		Name: "replace",
		Peer: "hr",
		Head: []Update{
			Delete{Rel: "Assign", Key: query.V("k")},
			Insert{Rel: "Assign", Args: []query.Term{query.V("k2"), query.V("x2"), query.V("y")}},
		},
		Body: query.Query{
			query.Atom{Rel: "Assign", Args: []query.Term{query.V("k"), query.V("x"), query.V("y")}},
			query.Atom{Rel: "Replace", Args: []query.Term{query.V("r"), query.V("x"), query.V("x2")}},
		},
	}
}

func TestRuleStringAndVars(t *testing.T) {
	r := replaceRule()
	s := r.String()
	if !strings.Contains(s, "replace at hr:") || !strings.Contains(s, "-Assign(k)") {
		t.Fatalf("String()=%q", s)
	}
	fv := r.FreshVars()
	if len(fv) != 1 || fv[0] != "k2" {
		t.Fatalf("FreshVars=%v", fv)
	}
	// The layout holds the body and head variables in sorted order, and
	// the fresh variable's slot.
	l := r.Layout()
	if !slices.Equal(l.Vars, []string{"k", "k2", "r", "x", "x2", "y"}) || !slices.Equal(l.Fresh, []int{1}) {
		t.Fatalf("Layout Vars=%v Fresh=%v", l.Vars, l.Fresh)
	}
}

func TestRuleConstants(t *testing.T) {
	r := &Rule{
		Name: "c",
		Peer: "hr",
		Head: []Update{Insert{Rel: "Assign", Args: []query.Term{query.C("0"), query.C("alice"), query.C(data.Null)}}},
		Body: query.Query{query.Compare{Neg: true, L: query.C("x"), R: query.C("y")}},
	}
	cs := r.Constants()
	for _, want := range []data.Value{"0", "alice", "x", "y"} {
		if !cs.Has(want) {
			t.Fatalf("Constants missing %s: %v", want, cs.Sorted())
		}
	}
	if cs.Has(data.Null) {
		t.Fatal("⊥ is not a constant of the program")
	}
}

func TestValidateAccepts(t *testing.T) {
	s := fixture(t)
	if err := replaceRule().Validate(s); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	s := fixture(t)
	cases := []struct {
		name string
		mut  func(*Rule)
	}{
		{"unknown peer", func(r *Rule) { r.Peer = "nobody" }},
		{"empty head", func(r *Rule) { r.Head = nil }},
		{"unsafe body var", func(r *Rule) {
			r.Body = append(r.Body, query.Compare{L: query.V("loose"), R: query.C("1")})
		}},
		{"bad body schema", func(r *Rule) {
			r.Body = append(r.Body, query.Atom{Rel: "Nope", Args: []query.Term{query.V("k")}})
		}},
		{"head relation invisible", func(r *Rule) {
			r.Head = []Update{Insert{Rel: "Nope", Args: []query.Term{query.V("k")}}}
		}},
		{"insertion arity", func(r *Rule) {
			r.Head = []Update{Insert{Rel: "Assign", Args: []query.Term{query.V("k")}}}
		}},
		{"same-relation updates, non-fresh keys, no disequality", func(r *Rule) {
			// Bind k2 in the body so it is no longer fresh; without a
			// disequality the two Assign updates could collide.
			r.Body = append(r.Body, query.Atom{Rel: "Assign",
				Args: []query.Term{query.V("k2"), query.V("a"), query.V("b")}})
		}},
		{"same key term twice", func(r *Rule) {
			r.Head = []Update{
				Delete{Rel: "Assign", Key: query.V("k")},
				Insert{Rel: "Assign", Args: []query.Term{query.V("k"), query.V("x2"), query.V("y")}},
			}
		}},
	}
	for _, c := range cases {
		r := replaceRule()
		c.mut(r)
		if err := r.Validate(s); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestValidateSameConstantKeys(t *testing.T) {
	s := fixture(t)
	r := &Rule{
		Name: "dup",
		Peer: "hr",
		Head: []Update{
			Insert{Rel: "Assign", Args: []query.Term{query.C("0"), query.C("a"), query.C("p")}},
			Delete{Rel: "Assign", Key: query.C("0")},
		},
		Body: query.Query{},
	}
	if err := r.Validate(s); err == nil {
		t.Fatal("two updates of the same constant key must be rejected")
	}
	// Distinct constants are fine without an explicit disequality.
	r.Head[1] = Delete{Rel: "Assign", Key: query.C("1")}
	r.Body = query.Query{query.Atom{Rel: "Assign", Args: []query.Term{query.C("1"), query.V("a"), query.V("b")}}}
	if err := r.Validate(s); err != nil {
		t.Fatalf("distinct constant keys should validate: %v", err)
	}
}

func TestIsNormalFormDetects(t *testing.T) {
	r := replaceRule()
	// replaceRule deletes Assign(k) and has Assign(k, ...) in the body: (i) ok.
	if !IsNormalForm(r) {
		t.Fatal("replace rule is in normal form")
	}
	neg := &Rule{
		Name: "n", Peer: "hr",
		Head: []Update{Insert{Rel: "Assign", Args: []query.Term{query.V("k"), query.V("x"), query.V("y")}}},
		Body: query.Query{
			query.Atom{Rel: "Assign", Args: []query.Term{query.V("k"), query.V("x"), query.V("y")}},
			query.Atom{Neg: true, Rel: "Replace", Args: []query.Term{query.V("k"), query.V("x"), query.V("y")}},
		},
	}
	if IsNormalForm(neg) {
		t.Fatal("negative relational literal violates normal form")
	}
	posKey := &Rule{
		Name: "pk", Peer: "hr",
		Head: []Update{Insert{Rel: "Assign", Args: []query.Term{query.V("k"), query.V("k"), query.V("k")}}},
		Body: query.Query{query.KeyAtom{Rel: "Assign", Arg: query.V("k")}},
	}
	if IsNormalForm(posKey) {
		t.Fatal("positive key literal violates normal form")
	}
	danglingDelete := &Rule{
		Name: "dd", Peer: "hr",
		Head: []Update{Delete{Rel: "Assign", Key: query.V("k")}},
		Body: query.Query{query.Atom{Rel: "Replace", Args: []query.Term{query.V("k"), query.V("x"), query.V("y")}}},
	}
	if IsNormalForm(danglingDelete) {
		t.Fatal("deletion without witness atom violates normal form")
	}
}

func TestNormalizeAddsDeletionWitness(t *testing.T) {
	s := fixture(t)
	r := &Rule{
		Name: "dd", Peer: "hr",
		Head: []Update{Delete{Rel: "Assign", Key: query.V("k")}},
		Body: query.Query{query.Atom{Rel: "Replace", Args: []query.Term{query.V("k"), query.V("x"), query.V("y")}}},
	}
	out, err := Normalize([]*Rule{r}, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d rules", len(out))
	}
	nf := out[0]
	if !IsNormalForm(nf) {
		t.Fatalf("not normal form: %s", nf)
	}
	if nf.Origin != "dd" {
		t.Fatalf("Origin=%q", nf.Origin)
	}
	if !hasPositiveAtomWithKey(nf.Body, "Assign", query.V("k")) {
		t.Fatalf("witness atom missing: %s", nf)
	}
	if err := nf.Validate(s); err != nil {
		t.Fatalf("normalized rule must validate: %v", err)
	}
}

func TestNormalizePositiveKeyLiteral(t *testing.T) {
	s := fixture(t)
	r := &Rule{
		Name: "pk", Peer: "hr",
		Head: []Update{Insert{Rel: "Replace", Args: []query.Term{query.V("k"), query.V("k"), query.V("k")}}},
		Body: query.Query{query.KeyAtom{Rel: "Assign", Arg: query.V("k")}},
	}
	out, err := Normalize([]*Rule{r}, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !IsNormalForm(out[0]) {
		t.Fatalf("got %v", out)
	}
	// The key literal became a full atom binding k.
	a, ok := out[0].Body[0].(query.Atom)
	if !ok || a.Neg || a.Rel != "Assign" || len(a.Args) != 3 || a.Args[0] != query.V("k") {
		t.Fatalf("unexpected literal %v", out[0].Body[0])
	}
}

func TestNormalizeNegativeAtomCaseSplit(t *testing.T) {
	s := fixture(t)
	r := &Rule{
		Name: "neg", Peer: "hr",
		Head: []Update{Insert{Rel: "Replace", Args: []query.Term{query.V("k"), query.V("x"), query.V("y")}}},
		Body: query.Query{
			query.Atom{Rel: "Assign", Args: []query.Term{query.V("k"), query.V("x"), query.V("y")}},
			query.Atom{Neg: true, Rel: "Replace", Args: []query.Term{query.V("k"), query.V("x"), query.V("y")}},
		},
	}
	out, err := Normalize([]*Rule{r}, s)
	if err != nil {
		t.Fatal(err)
	}
	// Case (a) ¬Key + case (b) for the 2 non-key attributes = 3 rules.
	if len(out) != 3 {
		t.Fatalf("expected 3 rules, got %d: %v", len(out), out)
	}
	for _, nf := range out {
		if !IsNormalForm(nf) {
			t.Fatalf("not normal form: %s", nf)
		}
		if nf.Origin != "neg" {
			t.Fatalf("θ mapping lost: Origin=%q", nf.Origin)
		}
		if err := nf.Validate(s); err != nil {
			t.Fatalf("normalized rule invalid: %v (%s)", err, nf)
		}
	}
	// Names must be distinct for the derived rules.
	names := map[string]bool{}
	for _, nf := range out {
		if names[nf.Name] {
			t.Fatalf("duplicate derived rule name %s", nf.Name)
		}
		names[nf.Name] = true
	}
}

func TestNormalizeIdempotentOnNormalRules(t *testing.T) {
	s := fixture(t)
	r := replaceRule()
	out, err := Normalize([]*Rule{r}, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("normal-form rule should pass through, got %d", len(out))
	}
	if out[0].Body.String() != r.Body.String() {
		t.Fatalf("body changed: %s vs %s", out[0].Body, r.Body)
	}
}

func TestUpdateAccessors(t *testing.T) {
	i := Insert{Rel: "R", Args: []query.Term{query.V("k"), query.C("a")}}
	if i.Relation() != "R" || i.KeyTerm() != query.V("k") {
		t.Fatal("insert accessors broken")
	}
	if i.String() != `+R(k, "a")` {
		t.Fatalf("String()=%q", i.String())
	}
	d := Delete{Rel: "R", Key: query.C("0")}
	if d.Relation() != "R" || d.KeyTerm() != query.C("0") {
		t.Fatal("delete accessors broken")
	}
	if d.String() != `-R("0")` {
		t.Fatalf("String()=%q", d.String())
	}
	empty := Insert{Rel: "R"}
	if empty.KeyTerm() != query.C(data.Null) {
		t.Fatal("empty insert key must be ⊥")
	}
}
