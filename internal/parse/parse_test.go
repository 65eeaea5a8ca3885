package parse

import (
	"fmt"
	"strings"
	"testing"

	"collabwf/internal/cond"
	"collabwf/internal/data"
	"collabwf/internal/program"
	"collabwf/internal/query"
	"collabwf/internal/rule"
	"collabwf/internal/schema"
	"collabwf/internal/workload"
)

const hiringSrc = `
workflow Hiring

# the four unary relations of Example 5.1
relation Cleared(K)
relation CfoOK(K)
relation Approved(K)
relation Hire(K)

peer hr {
    view Cleared(K)
    view CfoOK(K)
    view Approved(K)
    view Hire(K)
}
peer cfo {
    view Cleared(K)
    view CfoOK(K)
    view Approved(K)
    view Hire(K)
}
peer ceo {
    view Cleared(K)
    view CfoOK(K)
    view Approved(K)
    view Hire(K)
}
peer sue {
    view Cleared(K)
    view Hire(K)
}

rule clear at hr:
    +Cleared(x) :- true

rule cfo_ok at cfo:
    +CfoOK(x) :- Cleared(x)

rule approve at ceo:
    +Approved(x) :- Cleared(x), CfoOK(x)

rule hire at hr:
    +Hire(x) :- Approved(x)
`

func TestParseHiring(t *testing.T) {
	spec, err := Parse(hiringSrc)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "Hiring" {
		t.Fatalf("Name=%q", spec.Name)
	}
	p := spec.Program
	if len(p.Rules()) != 4 || len(p.Peers()) != 4 {
		t.Fatalf("rules=%d peers=%d", len(p.Rules()), len(p.Peers()))
	}
	// Behavioral equivalence with the programmatic fixture: run it.
	r := program.NewRun(p)
	e := r.MustFireRule("clear", nil)
	cand := e.Updates()[0].Key
	r.MustFireRule("cfo_ok", map[string]data.Value{"x": cand})
	r.MustFireRule("approve", map[string]data.Value{"x": cand})
	r.MustFireRule("hire", map[string]data.Value{"x": cand})
	if !r.Current().HasKey("Hire", cand) {
		t.Fatal("parsed hiring program did not hire")
	}
	if !r.VisibleAt(3, "sue") || r.VisibleAt(2, "sue") {
		t.Fatal("visibility wrong in parsed program")
	}
}

func TestParseSelectionsAndLiterals(t *testing.T) {
	src := `
workflow Docs
relation Doc(K, Author, Status)
relation Audit(K, Doc)

peer editor {
    view Doc(K, Author, Status)
    view Audit(K, Doc)
}
peer reader {
    view Doc(K, Author) where Status = "pub" and not Author = null
}

rule publish at editor:
    +Doc(d, a, "pub") :- Doc(d, a, null), d != a

rule audit at editor:
    +Audit(k, d) :- Doc(d, a, "pub"), not key Audit(d), not Audit(d, a)
`
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := spec.Program.Schema.View("reader", "Doc")
	if !ok {
		t.Fatal("reader view missing")
	}
	and, ok := v.Selection.(cond.And)
	if !ok || len(and.Cs) != 2 {
		t.Fatalf("selection=%v", v.Selection)
	}
	audit := spec.Program.Rule("audit")
	if audit == nil || len(audit.Body) != 3 {
		t.Fatalf("audit=%v", audit)
	}
	if ka, ok := audit.Body[1].(query.KeyAtom); !ok || !ka.Neg {
		t.Fatalf("literal 1 = %v", audit.Body[1])
	}
	if a, ok := audit.Body[2].(query.Atom); !ok || !a.Neg {
		t.Fatalf("literal 2 = %v", audit.Body[2])
	}
	pub := spec.Program.Rule("publish")
	if cmp, ok := pub.Body[1].(query.Compare); !ok || !cmp.Neg {
		t.Fatalf("comparison literal = %v", pub.Body[1])
	}
	ins := pub.Head[0].(rule.Insert)
	if ins.Args[2] != query.C("pub") {
		t.Fatalf("constant argument = %v", ins.Args[2])
	}
}

func TestParseDeletionAndConditionGrammar(t *testing.T) {
	src := `
workflow D
relation R(K, A)
peer p {
    view R(K, A) where (A = "x" or A = B) and not A != null
}
rule del at p:
    -R(k), +R(k2, "v") :- R(k, a)
`
	// B is not an attribute of R: the view must be rejected.
	if _, err := Parse(src); err == nil {
		t.Fatal("selection over unknown attribute must fail")
	}
	src = strings.Replace(src, "A = B", "A = K", 1)
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	del := spec.Program.Rule("del")
	if _, ok := del.Head[0].(rule.Delete); !ok {
		t.Fatalf("head[0]=%v", del.Head[0])
	}
	if _, ok := del.Head[1].(rule.Insert); !ok {
		t.Fatalf("head[1]=%v", del.Head[1])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"missing workflow", `relation R(K)`},
		{"bad declaration", `workflow W\nfoo`},
		{"undeclared relation view", "workflow W\nrelation R(K)\npeer p { view S(K) }"},
		{"unterminated string", "workflow W\nrelation R(K)\npeer p { view R(K) where A = \"x }"},
		{"deletion arity", "workflow W\nrelation R(K)\npeer p { view R(K) }\nrule r at p: -R(k, j) :- R(k)"},
		{"duplicate rule", "workflow W\nrelation R(K)\npeer p { view R(K) }\nrule r at p: +R(x) :- true\nrule r at p: +R(x) :- true"},
		{"unknown peer rule", "workflow W\nrelation R(K)\npeer p { view R(K) }\nrule r at q: +R(x) :- true"},
		{"stray character", "workflow W\nrelation R(K) !"},
		{"unsafe body", "workflow W\nrelation R(K)\npeer p { view R(K) }\nrule r at p: +R(x) :- y != x"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// A relation wider than schema.MaxArity is refused with an error naming
// it and its line, so a spec never silently truncates an effect's mask.
func TestParseRejectsWideRelation(t *testing.T) {
	attrs := make([]string, schema.MaxArity)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i)
	}
	src := "workflow W\nrelation R(K)\nrelation Wide(K, " + strings.Join(attrs, ", ") + ")\npeer p { view R(K) }"
	_, err := Parse(src)
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "relation Wide") {
		t.Fatalf("Parse of a %d-attribute relation: error %v, want one naming line 3 and Wide", schema.MaxArity+1, err)
	}
}

func TestCommentsAndEscapes(t *testing.T) {
	src := "workflow W # trailing\n# full line\nrelation R(K, A)\npeer p { view R(K, A) }\n" +
		"rule r at p: +R(x, \"a\\\"b\\n\") :- true"
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ins := spec.Program.Rule("r").Head[0].(rule.Insert)
	if ins.Args[1] != query.C(data.Value("a\"b\n")) {
		t.Fatalf("escaped constant = %q", ins.Args[1].Const)
	}
}

// Round-trip: Print ∘ Parse is the identity up to formatting for the
// workload programs.
func TestRoundTripWorkloads(t *testing.T) {
	progs := map[string]*program.Program{
		"Hiring":      workload.Hiring(),
		"HiringNoCfo": workload.HiringTransparentNoCfo(),
	}
	if p, _, err := workload.Chain(4); err == nil {
		progs["Chain4"] = p
	}
	if _, r := workload.Approval(); r != nil {
		progs["Approval"] = r.Prog
	}
	for name, p := range progs {
		text := Print(name, p)
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: reparse failed: %v\n%s", name, err, text)
		}
		if len(back.Program.Rules()) != len(p.Rules()) {
			t.Fatalf("%s: rule count changed", name)
		}
		// Printing again must be a fixpoint.
		if Print(name, back.Program) != text {
			t.Fatalf("%s: print not idempotent", name)
		}
		// Same rule shapes.
		for _, r := range p.Rules() {
			br := back.Program.Rule(sanitizeIdent(r.Name))
			if br == nil {
				t.Fatalf("%s: rule %s lost", name, r.Name)
			}
			if br.Body.String() != r.Body.String() {
				t.Fatalf("%s: body of %s changed: %s vs %s", name, r.Name, br.Body, r.Body)
			}
		}
	}
}

func TestSanitizeIdent(t *testing.T) {
	if sanitizeIdent("a#nf1") != "a_nf1" {
		t.Fatalf("got %q", sanitizeIdent("a#nf1"))
	}
	if sanitizeIdent("9x") != "_x" {
		t.Fatalf("got %q", sanitizeIdent("9x"))
	}
	if sanitizeIdent("") != "_" {
		t.Fatal("empty name")
	}
}

func TestPeerNames(t *testing.T) {
	spec := MustParse(hiringSrc)
	names := PeerNames(spec.Program)
	if len(names) != 4 || names[0] != "ceo" {
		t.Fatalf("PeerNames=%v", names)
	}
}
