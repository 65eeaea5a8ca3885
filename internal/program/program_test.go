package program

import (
	"slices"
	"strings"
	"testing"

	"collabwf/internal/cond"
	"collabwf/internal/data"
	"collabwf/internal/query"
	"collabwf/internal/rule"
	"collabwf/internal/schema"
)

// hiringProgram is the paper's Example 5.1: peers hr, cfo, ceo, sue;
// relations Cleared, cfoOK, Approved, Hire (unary: key holds the person).
// hr, cfo, ceo see everything; sue sees only Cleared and Hire.
func hiringProgram(t *testing.T) *Program {
	t.Helper()
	cleared := schema.MustRelation("Cleared")
	cfoOK := schema.MustRelation("CfoOK")
	approved := schema.MustRelation("Approved")
	hire := schema.MustRelation("Hire")
	db := schema.MustDatabase(cleared, cfoOK, approved, hire)
	s := schema.NewCollaborative(db)
	for _, p := range []schema.Peer{"hr", "cfo", "ceo"} {
		for _, rel := range []*schema.Relation{cleared, cfoOK, approved, hire} {
			s.MustAddView(schema.MustView(rel, p, nil, nil))
		}
	}
	s.MustAddView(schema.MustView(cleared, "sue", nil, nil))
	s.MustAddView(schema.MustView(hire, "sue", nil, nil))

	rules := []*rule.Rule{
		{
			Name: "clear", Peer: "hr",
			Head: []rule.Update{rule.Insert{Rel: "Cleared", Args: []query.Term{query.V("x")}}},
			Body: query.Query{},
		},
		{
			// The person is introduced by "clear" with a fresh value and
			// flows through bodies thereafter (the run condition binds
			// head-only variables to globally fresh values).
			Name: "cfo_ok", Peer: "cfo",
			Head: []rule.Update{rule.Insert{Rel: "CfoOK", Args: []query.Term{query.V("x")}}},
			Body: query.Query{query.Atom{Rel: "Cleared", Args: []query.Term{query.V("x")}}},
		},
		{
			Name: "approve", Peer: "ceo",
			Head: []rule.Update{rule.Insert{Rel: "Approved", Args: []query.Term{query.V("x")}}},
			Body: query.Query{
				query.Atom{Rel: "Cleared", Args: []query.Term{query.V("x")}},
				query.Atom{Rel: "CfoOK", Args: []query.Term{query.V("x")}},
			},
		},
		{
			Name: "hire", Peer: "hr",
			Head: []rule.Update{rule.Insert{Rel: "Hire", Args: []query.Term{query.V("x")}}},
			Body: query.Query{query.Atom{Rel: "Approved", Args: []query.Term{query.V("x")}}},
		},
	}
	return MustNew(s, rules)
}

func TestProgramBasics(t *testing.T) {
	p := hiringProgram(t)
	if len(p.Rules()) != 4 {
		t.Fatalf("rules=%d", len(p.Rules()))
	}
	if p.Rule("approve") == nil || p.Rule("zzz") != nil {
		t.Fatal("Rule lookup broken")
	}
	if len(p.RulesAt("hr")) != 2 || len(p.RulesAt("sue")) != 0 {
		t.Fatal("RulesAt broken")
	}
	if p.MaxHeadUpdates() != 1 || p.MaxBodyAtoms() != 2 {
		t.Fatalf("MaxHeadUpdates=%d MaxBodyAtoms=%d", p.MaxHeadUpdates(), p.MaxBodyAtoms())
	}
	if !p.IsNormalForm() {
		t.Fatal("hiring program is in normal form")
	}
	if !strings.Contains(p.String(), "approve at ceo") {
		t.Fatalf("String()=%q", p.String())
	}
}

func TestProgramRejectsDuplicatesAndInvalid(t *testing.T) {
	p := hiringProgram(t)
	rules := append([]*rule.Rule{}, p.Rules()...)
	rules = append(rules, p.Rules()[0]) // duplicate name
	if _, err := New(p.Schema, rules); err == nil {
		t.Fatal("duplicate rule name must fail")
	}
	bad := &rule.Rule{Name: "", Peer: "hr", Head: p.Rules()[0].Head}
	if _, err := New(p.Schema, []*rule.Rule{bad}); err == nil {
		t.Fatal("unnamed rule must fail")
	}
}

func TestRunHappyPath(t *testing.T) {
	p := hiringProgram(t)
	r := NewRun(p)
	e := r.MustFireRule("clear", nil) // x is head-only, bound fresh
	sue := e.Updates()[0].Key
	r.MustFireRule("cfo_ok", map[string]data.Value{"x": sue})
	r.MustFireRule("approve", map[string]data.Value{"x": sue})
	r.MustFireRule("hire", map[string]data.Value{"x": sue})
	if r.Len() != 4 {
		t.Fatalf("run length %d", r.Len())
	}
	if !r.Current().HasKey("Hire", sue) {
		t.Fatal("sue must be hired")
	}
	// Event 2 (approve) is invisible at sue: it only touches Approved.
	if r.VisibleAt(2, "sue") {
		t.Fatal("approve is invisible at sue")
	}
	// Events 0 (clear) and 3 (hire) are visible at sue.
	vis := r.VisibleEvents("sue")
	if len(vis) != 2 || vis[0] != 0 || vis[1] != 3 {
		t.Fatalf("sue sees %v", vis)
	}
	// ceo performed approve, so it is visible at ceo regardless.
	if !r.VisibleAt(2, "ceo") {
		t.Fatal("own events are visible")
	}
}

func TestRunBodyNotSatisfied(t *testing.T) {
	p := hiringProgram(t)
	r := NewRun(p)
	if _, err := r.FireRule("approve", map[string]data.Value{"x": "sue"}); err == nil {
		t.Fatal("approve without clearance must fail")
	}
}

func TestRunEffectsRecorded(t *testing.T) {
	p := hiringProgram(t)
	r := NewRun(p)
	r.MustFireRule("clear", map[string]data.Value{"x": "sue"})
	efs := r.Effects(0)
	if len(efs) != 1 || efs[0].Kind != Created || efs[0].Rel != "Cleared" || efs[0].Key != "sue" {
		t.Fatalf("effects=%v", efs)
	}
	if efs[0].Kind.String() != "created" {
		t.Fatal("EffectKind.String broken")
	}
}

// multiAttr exercises chase-merge inserts, deletions, and selections.
func multiAttr(t *testing.T) *Program {
	t.Helper()
	doc := schema.MustRelation("Doc", "Author", "Status")
	db := schema.MustDatabase(doc)
	s := schema.NewCollaborative(db)
	// writer sees K+Author, editor sees K+Status, reader sees published docs.
	s.MustAddView(schema.MustView(doc, "writer", []data.Attr{"Author"}, nil))
	s.MustAddView(schema.MustView(doc, "editor", []data.Attr{"Status"}, nil))
	s.MustAddView(schema.MustView(doc, "reader", []data.Attr{"Author"},
		cond.EqConst{Attr: "Status", Const: "pub"}))
	rules := []*rule.Rule{
		{
			Name: "draft", Peer: "writer",
			Head: []rule.Update{rule.Insert{Rel: "Doc", Args: []query.Term{query.V("d"), query.V("a")}}},
			Body: query.Query{},
		},
		{
			Name: "publish", Peer: "editor",
			Head: []rule.Update{rule.Insert{Rel: "Doc", Args: []query.Term{query.V("d"), query.C("pub")}}},
			Body: query.Query{query.Atom{Rel: "Doc", Args: []query.Term{query.V("d"), query.C(data.Null)}}},
		},
		{
			Name: "retract", Peer: "editor",
			Head: []rule.Update{rule.Delete{Rel: "Doc", Key: query.V("d")}},
			Body: query.Query{query.Atom{Rel: "Doc", Args: []query.Term{query.V("d"), query.V("s")}}},
		},
	}
	return MustNew(s, rules)
}

func TestChaseMergeInsertAndVisibilitySideEffect(t *testing.T) {
	p := multiAttr(t)
	r := NewRun(p)
	e1 := r.MustFireRule("draft", map[string]data.Value{"a": "alice"})
	d := e1.Updates()[0].Key // fresh key ν1
	if got, _ := r.Current().Get("Doc", d); !got.Equal(data.Tuple{d, "alice", data.Null}) {
		t.Fatalf("after draft: %v", got)
	}
	// Reader sees nothing yet (selection Status=pub fails).
	if len(r.ViewAt(0, "reader").Tuples("Doc")) != 0 {
		t.Fatal("reader must not see drafts")
	}
	// Publish fills Status via chase merge.
	r.MustFireRule("publish", map[string]data.Value{"d": d})
	if got, _ := r.Current().Get("Doc", d); !got.Equal(data.Tuple{d, "alice", "pub"}) {
		t.Fatalf("after publish: %v", got)
	}
	// The publish event is visible at reader (side effect on its view).
	if !r.VisibleAt(1, "reader") {
		t.Fatal("publish must be visible at reader")
	}
	efs := r.Effects(1)
	if len(efs) != 1 || efs[0].Kind != Modified || len(efs[0].Filled) != 1 {
		t.Fatalf("publish effects=%v", efs)
	}
	if attr := p.Schema.DB.Relation("Doc").Attrs[efs[0].Filled[0]]; attr != "Status" {
		t.Fatalf("publish filled %s, want Status", attr)
	}
	// Retract deletes.
	r.MustFireRule("retract", map[string]data.Value{"d": d, "s": "pub"})
	if r.Current().HasKey("Doc", d) {
		t.Fatal("doc must be gone")
	}
	if r.Effects(2)[0].Kind != Deleted {
		t.Fatal("delete effect missing")
	}
}

func TestInsertConflictRejected(t *testing.T) {
	p := multiAttr(t)
	r := NewRun(p)
	e1 := r.MustFireRule("draft", map[string]data.Value{"a": "alice"})
	d := e1.Updates()[0].Key
	r.MustFireRule("publish", map[string]data.Value{"d": d})
	// The publish rule requires Status=⊥ in editor's view; re-publishing
	// fails at the body.
	if _, err := r.FireRule("publish", map[string]data.Value{"d": d}); err == nil {
		t.Fatal("publish of a published doc must fail")
	}
}

// An insertion whose non-⊥ attribute conflicts with the stored row is
// rejected by the chase, and one that agrees merges into a row that keeps
// every inserted value. Apply relies on this for the subsumption half of
// condition (ii): it checks only that the inserting peer sees the merged
// row, so a chase that let a stored value win over an inserted one would
// silently accept a tuple the peer never wrote.
func TestInsertConflictRejectedByChase(t *testing.T) {
	p := multiAttr(t)
	r := NewRun(p)
	e1 := r.MustFireRule("draft", map[string]data.Value{"a": "alice"})
	d := e1.Updates()[0].Key
	r.MustFireRule("publish", map[string]data.Value{"d": d})
	in := r.Current()
	stored, _ := in.Get("Doc", d)

	conflict := MustEvent(p.Rule("draft"), query.Valuation{"d": d, "a": "bob"})
	_, _, err := Apply(in, conflict, p.Schema, nil)
	if err == nil || !strings.Contains(err.Error(), "chase conflict") {
		t.Fatalf("Apply of a conflicting Author: err = %v, want a chase conflict", err)
	}
	if got, _ := in.Get("Doc", d); !got.Equal(stored) {
		t.Fatalf("rejected insertion changed the row: %v → %v", stored, got)
	}

	agree := MustEvent(p.Rule("draft"), query.Valuation{"d": d, "a": "alice"})
	next, efs, err := Apply(in, agree, p.Schema, nil)
	if err != nil {
		t.Fatalf("Apply of an agreeing Author: %v", err)
	}
	want := data.Tuple{d, "alice", "pub"}
	if got, _ := next.Get("Doc", d); !got.Equal(want) {
		t.Fatalf("merged row %v, want %v", got, want)
	}
	if len(efs) != 1 || efs[0].Kind != Modified || !efs[0].After.Equal(want) || efs[0].Filled != nil {
		t.Fatalf("effects %+v", efs)
	}
}

func TestDeleteRequiresVisibility(t *testing.T) {
	// reader sees only published docs and has a delete rule; deleting an
	// unpublished doc must fail even with a correct key.
	doc := schema.MustRelation("Doc", "Status")
	db := schema.MustDatabase(doc)
	s := schema.NewCollaborative(db)
	s.MustAddView(schema.MustView(doc, "admin", []data.Attr{"Status"}, nil))
	s.MustAddView(schema.MustView(doc, "reader", nil,
		cond.EqConst{Attr: "Status", Const: "pub"}))
	rules := []*rule.Rule{
		{
			Name: "mk", Peer: "admin",
			Head: []rule.Update{rule.Insert{Rel: "Doc", Args: []query.Term{query.V("d"), query.V("s")}}},
			Body: query.Query{},
		},
		{
			Name: "del", Peer: "reader",
			Head: []rule.Update{rule.Delete{Rel: "Doc", Key: query.V("d")}},
			Body: query.Query{query.Atom{Rel: "Doc", Args: []query.Term{query.V("d")}}},
		},
	}
	p := MustNew(s, rules)
	r := NewRun(p)
	e := r.MustFireRule("mk", map[string]data.Value{"s": "draft"})
	d := e.Updates()[0].Key
	// Body Doc@reader(d) fails: reader does not see the draft.
	if _, err := r.FireRule("del", map[string]data.Value{"d": d}); err == nil {
		t.Fatal("reader cannot delete an invisible tuple")
	}
	// Direct event construction bypassing the body also fails at Apply.
	ev := MustEvent(p.Rule("del"), query.Valuation{"d": d})
	if _, _, err := Apply(r.Current(), ev, s, nil); err == nil {
		t.Fatal("Apply must reject deleting an invisible tuple")
	}
}

// Subsumption condition (ii) of insertions: if the inserted tuple is not
// visible to the inserting peer afterwards, the insertion fails.
func TestInsertSubsumptionFailure(t *testing.T) {
	docRel := schema.MustRelation("Doc", "Status")
	db := schema.MustDatabase(docRel)
	s := schema.NewCollaborative(db)
	// p only sees docs with Status = pub but inserts with Status free.
	s.MustAddView(schema.MustView(docRel, "p", []data.Attr{"Status"},
		cond.EqConst{Attr: "Status", Const: "pub"}))
	rules := []*rule.Rule{{
		Name: "mk", Peer: "p",
		Head: []rule.Update{rule.Insert{Rel: "Doc", Args: []query.Term{query.V("d"), query.C("draft")}}},
		Body: query.Query{},
	}}
	p := MustNew(s, rules)
	r := NewRun(p)
	if _, err := r.FireRule("mk", nil); err == nil {
		t.Fatal("insertion invisible to its own peer must fail")
	}
}

func TestFreshnessEnforced(t *testing.T) {
	p := hiringProgram(t)
	r := NewRun(p)
	r.MustFireRule("clear", map[string]data.Value{"x": "sue"})
	// Reusing "sue" for a fresh variable must fail.
	ev := MustEvent(p.Rule("clear"), query.Valuation{"x": "sue"})
	if err := r.Append(ev); err == nil {
		t.Fatal("reused value is not fresh")
	}
	// A genuinely new value works.
	ev2 := MustEvent(p.Rule("clear"), query.Valuation{"x": "bob"})
	if err := r.Append(ev2); err != nil {
		t.Fatal(err)
	}
	// ⊥ can never be fresh.
	ev3 := MustEvent(p.Rule("clear"), query.Valuation{"x": data.Null})
	if err := r.Append(ev3); err == nil {
		t.Fatal("⊥ is not a legal fresh value")
	}
}

func TestCandidatesAndFire(t *testing.T) {
	p := hiringProgram(t)
	r := NewRun(p)
	cands := r.Candidates(0)
	// On the empty instance only the body-less rule (clear) fires.
	if len(cands) != 1 {
		t.Fatalf("candidates=%v", cands)
	}
	if _, err := r.Fire(cands[0]); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatal("Fire must append")
	}
}

func TestEventIdentity(t *testing.T) {
	p := hiringProgram(t)
	e1 := MustEvent(p.Rule("clear"), query.Valuation{"x": "sue"})
	e2 := MustEvent(p.Rule("clear"), query.Valuation{"x": "sue"})
	e3 := MustEvent(p.Rule("clear"), query.Valuation{"x": "bob"})
	if !e1.Equal(e2) || e1.Equal(e3) {
		t.Fatal("event equality broken")
	}
	if e1.Fingerprint() == e3.Fingerprint() {
		t.Fatal("fingerprints must differ")
	}
	if e1.Peer() != "hr" {
		t.Fatal("Peer broken")
	}
}

func TestEventKeys(t *testing.T) {
	p := hiringProgram(t)
	e := MustEvent(p.Rule("approve"), query.Valuation{"x": "sue"})
	// K(Cleared,e) = K(CfoOK,e) = K(Approved,e) = {sue}; Hire does not occur
	// in approve. The pairs are sorted by relation.
	keys := e.AppendKeys(nil)
	want := []RelKey{{"Approved", "sue"}, {"CfoOK", "sue"}, {"Cleared", "sue"}}
	if !slices.Equal(keys, want) {
		t.Fatalf("Keys=%v, want %v", keys, want)
	}
	// K(R, e) is derived from the rule's layout on each call: into a
	// buffer with room AppendKeys allocates nothing.
	buf := make([]RelKey, 0, 8)
	if n := testing.AllocsPerRun(100, func() { buf = e.AppendKeys(buf[:0]) }); n != 0 || !slices.Equal(buf, want) {
		t.Fatalf("AppendKeys allocates %.0f times per call and returns %v, want 0 and %v", n, buf, want)
	}
	// AppendKeys sorts and deduplicates only the part it appends.
	if got := e.AppendKeys([]RelKey{{"Hire", "sue"}}); len(got) != 4 || got[0].Rel != "Hire" || !slices.Equal(got[1:], want) {
		t.Fatalf("AppendKeys after one element = %v", got)
	}
}

func TestEventUnboundVariable(t *testing.T) {
	p := hiringProgram(t)
	if _, err := NewEvent(p.Rule("approve"), query.Valuation{}); err == nil {
		t.Fatal("unbound variables must be rejected")
	}
}

// FireRule rejects a binding that names no variable of the rule, naming
// it, and leaves the run unchanged; NewEvent, the decoders' constructor,
// drops such a name instead.
func TestFireRuleRejectsUnknownBinding(t *testing.T) {
	p := hiringProgram(t)
	r := NewRun(p)
	_, err := r.FireRule("clear", map[string]data.Value{"x": "sue", "bogus": "b"})
	if err == nil || !strings.Contains(err.Error(), "clear has no variable bogus") || r.Len() != 0 {
		t.Fatalf("FireRule with an unknown binding: %v, run of %d events", err, r.Len())
	}
	e := MustEvent(p.Rule("clear"), query.Valuation{"x": "sue", "bogus": "b"})
	if got := e.Fingerprint(); got != "clear{x↦sue}" {
		t.Fatalf("event %s", got)
	}
}

func TestRunFromInitialInstance(t *testing.T) {
	p := hiringProgram(t)
	init := schema.NewInstance(p.Schema.DB)
	init.MustPut("Cleared", data.Tuple{"sue"})
	init.MustPut("CfoOK", data.Tuple{"sue"})
	r := NewRunFrom(p, init)
	r.MustFireRule("approve", map[string]data.Value{"x": "sue"})
	if !r.Current().HasKey("Approved", "sue") {
		t.Fatal("approve from initial instance failed")
	}
	// Freshness counts initial-instance values.
	ev := MustEvent(p.Rule("clear"), query.Valuation{"x": "sue"})
	if err := r.Append(ev); err == nil {
		t.Fatal("values of the initial instance are not fresh")
	}
}

func TestNormalFormProgram(t *testing.T) {
	p := hiringProgram(t)
	nf, err := p.NormalForm()
	if err != nil {
		t.Fatal(err)
	}
	if !nf.IsNormalForm() {
		t.Fatal("NormalForm output not in normal form")
	}
	if len(nf.Rules()) != len(p.Rules()) {
		t.Fatalf("hiring program is already normal; got %d rules", len(nf.Rules()))
	}
}

func TestEventValuesAndString(t *testing.T) {
	p := hiringProgram(t)
	e := MustEvent(p.Rule("approve"), query.Valuation{"x": "sue"})
	s := e.String()
	if !strings.Contains(s, "approve@ceo") || !strings.Contains(s, "+Approved(sue)") {
		t.Fatalf("String()=%q", s)
	}
	del := GroundUpdate{IsDelete: true, Rel: "R", Key: "k"}
	if del.String() != "-R(k)" {
		t.Fatalf("delete String()=%q", del.String())
	}
}

func TestApplicableChecksBodyAndUpdates(t *testing.T) {
	p := hiringProgram(t)
	in := schema.NewInstance(p.Schema.DB)
	e := MustEvent(p.Rule("approve"), query.Valuation{"x": "sue"})
	if Applicable(in, e, p.Schema) {
		t.Fatal("approve needs Cleared and CfoOK")
	}
	in.MustPut("Cleared", data.Tuple{"sue"})
	in.MustPut("CfoOK", data.Tuple{"sue"})
	if !Applicable(in, e, p.Schema) {
		t.Fatal("approve must be applicable now")
	}
}

func TestRunAccessors(t *testing.T) {
	p := hiringProgram(t)
	r := NewRun(p)
	e := r.MustFireRule("clear", nil)
	if evs := r.Events(); len(evs) != 1 || !evs[0].Equal(e) {
		t.Fatalf("Events()=%v", evs)
	}
	if !strings.Contains(r.String(), "clear@hr") {
		t.Fatalf("Run.String()=%q", r.String())
	}
	ev2 := MustEvent(p.Rule("cfo_ok"), query.Valuation{"x": e.Updates()[0].Key})
	r.MustAppend(ev2)
	if r.Len() != 2 {
		t.Fatal("MustAppend failed")
	}
	if p.MaxRuleVars() != 1 {
		t.Fatalf("MaxRuleVars=%d", p.MaxRuleVars())
	}
	c := Candidate{Rule: p.Rule("hire"), Val: query.Valuation{"x": "a"}}
	if !strings.Contains(c.String(), "hire") {
		t.Fatalf("Candidate.String()=%q", c.String())
	}
}
