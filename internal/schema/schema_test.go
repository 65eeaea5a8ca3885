package schema

import (
	"strings"
	"testing"

	"collabwf/internal/cond"
	"collabwf/internal/data"
)

func TestNewRelation(t *testing.T) {
	r, err := NewRelation("R", "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	if r.Arity() != 3 || r.Attrs[0] != data.KeyAttr {
		t.Fatalf("relation %v", r)
	}
	if i, ok := r.Index("B"); !ok || i != 2 {
		t.Fatalf("Index(B)=%d,%v", i, ok)
	}
	if r.String() != "R(K, A, B)" {
		t.Fatalf("String()=%q", r.String())
	}
}

func TestNewRelationExplicitKey(t *testing.T) {
	r, err := NewRelation("R", data.KeyAttr, "A")
	if err != nil {
		t.Fatal(err)
	}
	if r.Arity() != 2 {
		t.Fatalf("arity %d", r.Arity())
	}
}

func TestNewRelationErrors(t *testing.T) {
	if _, err := NewRelation(""); err == nil {
		t.Fatal("empty name must fail")
	}
	if _, err := NewRelation("R", "A", "A"); err == nil {
		t.Fatal("duplicate attribute must fail")
	}
	if _, err := NewRelation("R", "A", data.KeyAttr); err == nil {
		t.Fatal("misplaced key must fail")
	}
}

func TestDatabase(t *testing.T) {
	r := MustRelation("R", "A")
	s := MustRelation("S", "B")
	db, err := NewDatabase(s, r)
	if err != nil {
		t.Fatal(err)
	}
	if db.Relation("R") != r || db.Relation("S") != s {
		t.Fatal("lookup broken")
	}
	names := db.Names()
	if len(names) != 2 || names[0] != "R" || names[1] != "S" {
		t.Fatalf("Names()=%v", names)
	}
	if db.MaxArity() != 2 {
		t.Fatalf("MaxArity=%d", db.MaxArity())
	}
	if _, err := NewDatabase(r, r); err == nil {
		t.Fatal("duplicate relation must fail")
	}
}

func TestViewProjectPadSees(t *testing.T) {
	r := MustRelation("R", "A", "B")
	v := MustView(r, "p", []data.Attr{"B"}, cond.EqConst{Attr: "A", Const: "x"})
	full := data.Tuple{"k", "x", "b"}
	if !v.Sees(full, nil) {
		t.Fatal("selection should hold")
	}
	if v.Sees(data.Tuple{"k", "y", "b"}, nil) {
		t.Fatal("selection should fail")
	}
	proj := v.Project(full)
	if !proj.Equal(data.Tuple{"k", "b"}) {
		t.Fatalf("Project=%v", proj)
	}
	pad := v.Pad(proj)
	if !pad.Equal(data.Tuple{"k", data.Null, "b"}) {
		t.Fatalf("Pad=%v", pad)
	}
	if v.Full() {
		t.Fatal("projected selective view is not full")
	}
	fv := MustView(r, "p", []data.Attr{"A", "B"}, nil)
	if !fv.Full() {
		t.Fatal("all-attrs true-selection view is full")
	}
}

func TestViewRelevantAttrs(t *testing.T) {
	r := MustRelation("R", "A", "B", "C")
	v := MustView(r, "p", []data.Attr{"A"}, cond.EqConst{Attr: "C", Const: "1"})
	got := v.RelevantAttrs()
	want := []data.Attr{"A", "C", "K"}
	if len(got) != len(want) {
		t.Fatalf("RelevantAttrs=%v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RelevantAttrs=%v want %v", got, want)
		}
	}
}

func TestViewErrors(t *testing.T) {
	r := MustRelation("R", "A")
	if _, err := NewView(r, "p", []data.Attr{"Z"}, nil); err == nil {
		t.Fatal("unknown attribute must fail")
	}
	if _, err := NewView(r, "p", []data.Attr{"A", "A"}, nil); err == nil {
		t.Fatal("duplicate attribute must fail")
	}
	if _, err := NewView(r, "p", nil, cond.EqConst{Attr: "Z", Const: "1"}); err == nil {
		t.Fatal("selection over unknown attribute must fail")
	}
	if _, err := NewView(nil, "p", nil, nil); err == nil {
		t.Fatal("nil relation must fail")
	}
}

func newHRSchema(t *testing.T) (*Database, *Collaborative) {
	t.Helper()
	rel := MustRelation("Emp", "Name", "Salary")
	db := MustDatabase(rel)
	s := NewCollaborative(db)
	s.MustAddView(MustView(rel, "hr", []data.Attr{"Name", "Salary"}, nil))
	s.MustAddView(MustView(rel, "dir", []data.Attr{"Name"}, nil))
	return db, s
}

func TestCollaborativeBasics(t *testing.T) {
	_, s := newHRSchema(t)
	if !s.HasPeer("hr") || !s.HasPeer("dir") || s.HasPeer("x") {
		t.Fatal("peer registry wrong")
	}
	peers := s.Peers()
	if len(peers) != 2 || peers[0] != "dir" || peers[1] != "hr" {
		t.Fatalf("Peers()=%v", peers)
	}
	if v, ok := s.View("hr", "Emp"); !ok || v.Rel.Name != "Emp" {
		t.Fatal("View lookup broken")
	}
	if got := s.PeersSeeing("Emp"); len(got) != 2 {
		t.Fatalf("PeersSeeing=%v", got)
	}
	if got := s.ViewsAt("hr"); len(got) != 1 {
		t.Fatalf("ViewsAt=%v", got)
	}
}

func TestLosslessAccept(t *testing.T) {
	_, s := newHRSchema(t)
	if err := s.CheckLossless(); err != nil {
		t.Fatalf("full hr view makes the schema lossless: %v", err)
	}
}

// Example 2.2 of the paper: R over KAB, att(R@p)=KAB with σ(R@p): A=⊥,
// att(R@q)=KA with σ true. Losslessness fails (value of B can be lost).
func TestLosslessRejectPaperExample22(t *testing.T) {
	rel := MustRelation("R", "A", "B")
	db := MustDatabase(rel)
	s := NewCollaborative(db)
	s.MustAddView(MustView(rel, "p", []data.Attr{"A", "B"}, cond.EqConst{Attr: "A", Const: data.Null}))
	s.MustAddView(MustView(rel, "q", []data.Attr{"A"}, nil))
	err := s.CheckLossless()
	if err == nil {
		t.Fatal("Example 2.2 schema must be rejected")
	}
	if !strings.Contains(err.Error(), "B") {
		t.Fatalf("error should blame attribute B: %v", err)
	}
}

// Selections that jointly cover the space are lossless even if no single
// view is full.
func TestLosslessSelectionCover(t *testing.T) {
	rel := MustRelation("R", "A", "B")
	db := MustDatabase(rel)
	s := NewCollaborative(db)
	s.MustAddView(MustView(rel, "p", []data.Attr{"A", "B"}, cond.EqConst{Attr: "A", Const: "x"}))
	s.MustAddView(MustView(rel, "q", []data.Attr{"A", "B"}, cond.Not{C: cond.EqConst{Attr: "A", Const: "x"}}))
	if err := s.CheckLossless(); err != nil {
		t.Fatalf("complementary selections are lossless: %v", err)
	}
}

func TestLosslessRejectUncoveredRelation(t *testing.T) {
	rel := MustRelation("R", "A")
	hidden := MustRelation("S", "B")
	db := MustDatabase(rel, hidden)
	s := NewCollaborative(db)
	s.MustAddView(MustView(rel, "p", []data.Attr{"A"}, nil))
	// Nobody sees S at all.
	if err := s.CheckLossless(); err == nil {
		t.Fatal("relation visible at no peer must be rejected")
	}
}

func TestInstancePutGetDelete(t *testing.T) {
	db := MustDatabase(MustRelation("R", "A"))
	in := NewInstance(db)
	if err := in.Put("R", data.Tuple{"k", "v"}); err != nil {
		t.Fatal(err)
	}
	if tup, ok := in.Get("R", "k"); !ok || !tup.Equal(data.Tuple{"k", "v"}) {
		t.Fatal("Get after Put broken")
	}
	if !in.HasKey("R", "k") || in.HasKey("R", "z") {
		t.Fatal("HasKey broken")
	}
	if in.Count("R") != 1 || in.Empty() {
		t.Fatal("Count/Empty broken")
	}
	if !in.Delete("R", "k") || in.Delete("R", "k") {
		t.Fatal("Delete semantics broken")
	}
	if !in.Empty() {
		t.Fatal("instance should be empty")
	}
}

func TestInstancePutErrors(t *testing.T) {
	db := MustDatabase(MustRelation("R", "A"))
	in := NewInstance(db)
	if err := in.Put("Z", data.Tuple{"k", "v"}); err == nil {
		t.Fatal("unknown relation must fail")
	}
	if err := in.Put("R", data.Tuple{"k"}); err == nil {
		t.Fatal("wrong arity must fail")
	}
	if err := in.Put("R", data.Tuple{data.Null, "v"}); err == nil {
		t.Fatal("⊥ key must fail")
	}
}

func TestInstanceCloneIsolation(t *testing.T) {
	db := MustDatabase(MustRelation("R", "A"))
	in := NewInstance(db)
	orig := data.Tuple{"k", "v"}
	in.MustPut("R", orig)
	orig[1] = "mutated"
	cp := in.Clone()
	cp.MustPut("R", data.Tuple{"k2", "w"})
	cp.MustPut("R", data.Tuple{"k", "changed"})
	if got, _ := in.Get("R", "k"); got[1] != "v" {
		t.Fatal("clone aliases original tuples")
	}
	if got, _ := cp.Get("R", "k"); got[1] != "changed" {
		t.Fatal("clone lost its own write")
	}
	if in.Count("R") != 1 {
		t.Fatal("clone aliases original maps")
	}
}

func TestChaseInsertMergesNulls(t *testing.T) {
	db := MustDatabase(MustRelation("R", "A", "B"))
	in := NewInstance(db)
	in.MustPut("R", data.Tuple{"k", "a", data.Null})
	next, merged, err := in.ChaseInsert("R", data.Tuple{"k", data.Null, "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Equal(data.Tuple{"k", "a", "b"}) {
		t.Fatalf("merged=%v", merged)
	}
	if got, _ := next.Get("R", "k"); !got.Equal(data.Tuple{"k", "a", "b"}) {
		t.Fatalf("stored=%v", got)
	}
	// Original untouched.
	if got, _ := in.Get("R", "k"); !got.Equal(data.Tuple{"k", "a", data.Null}) {
		t.Fatal("ChaseInsert must not mutate the receiver")
	}
}

func TestChaseInsertConflict(t *testing.T) {
	db := MustDatabase(MustRelation("R", "A"))
	in := NewInstance(db)
	in.MustPut("R", data.Tuple{"k", "a"})
	if _, _, err := in.ChaseInsert("R", data.Tuple{"k", "b"}); err == nil {
		t.Fatal("conflicting non-⊥ values must fail")
	}
	if _, _, err := in.ChaseInsert("R", data.Tuple{data.Null, "b"}); err == nil {
		t.Fatal("⊥ key must fail")
	}
	if _, _, err := in.ChaseInsert("Z", data.Tuple{"k", "b"}); err == nil {
		t.Fatal("unknown relation must fail")
	}
	if _, _, err := in.ChaseInsert("R", data.Tuple{"k"}); err == nil {
		t.Fatal("wrong arity must fail")
	}
}

func TestInstanceEqualAndFingerprint(t *testing.T) {
	db := MustDatabase(MustRelation("R", "A"))
	a, b := NewInstance(db), NewInstance(db)
	a.MustPut("R", data.Tuple{"k", "v"})
	if a.Equal(b) {
		t.Fatal("different instances compare equal")
	}
	b.MustPut("R", data.Tuple{"k", "v"})
	if !a.Equal(b) {
		t.Fatal("equal instances compare unequal")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal instances must share a fingerprint")
	}
	b.MustPut("R", data.Tuple{"k2", "w"})
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different instances must differ in fingerprint")
	}
}

func TestADom(t *testing.T) {
	db := MustDatabase(MustRelation("R", "A"))
	in := NewInstance(db)
	in.MustPut("R", data.Tuple{"k", data.Null})
	adom := in.ADom()
	if !adom.Has("k") || adom.Has(data.Null) || len(adom) != 1 {
		t.Fatalf("ADom=%v", adom.Sorted())
	}
}

func TestViewOfAndEquality(t *testing.T) {
	rel := MustRelation("Emp", "Name", "Salary")
	db := MustDatabase(rel)
	s := NewCollaborative(db)
	s.MustAddView(MustView(rel, "hr", []data.Attr{"Name", "Salary"}, nil))
	s.MustAddView(MustView(rel, "dir", []data.Attr{"Name"},
		cond.Not{C: cond.EqConst{Attr: "Salary", Const: data.Null}}))

	in := NewInstance(db)
	in.MustPut("Emp", data.Tuple{"e1", "alice", "100"})
	in.MustPut("Emp", data.Tuple{"e2", "bob", data.Null})

	hr := ViewOf(in, s, "hr")
	if len(hr.Tuples("Emp")) != 2 {
		t.Fatalf("hr sees %v", hr.Tuples("Emp"))
	}
	dir := ViewOf(in, s, "dir")
	ts := dir.Tuples("Emp")
	if len(ts) != 1 || !ts[0].Equal(data.Tuple{"e1", "alice"}) {
		t.Fatalf("dir sees %v", ts)
	}
	if !dir.HasKey("Emp", "e1") || dir.HasKey("Emp", "e2") {
		t.Fatal("dir HasKey broken")
	}
	// Equality and fingerprints.
	dir2 := ViewOf(in, s, "dir")
	if !dir.Equal(dir2) || dir.Fingerprint() != dir2.Fingerprint() {
		t.Fatal("identical views must be equal")
	}
	in2 := in.Clone()
	in2.MustPut("Emp", data.Tuple{"e2", "bob", "50"})
	dir3 := ViewOf(in2, s, "dir")
	if dir.Equal(dir3) {
		t.Fatal("views over different instances must differ")
	}
}

func TestReconstructLossless(t *testing.T) {
	rel := MustRelation("R", "A", "B")
	db := MustDatabase(rel)
	s := NewCollaborative(db)
	// p sees K,A; q sees K,B; both with true selections → lossless.
	s.MustAddView(MustView(rel, "p", []data.Attr{"A"}, nil))
	s.MustAddView(MustView(rel, "q", []data.Attr{"B"}, nil))
	if err := s.CheckLossless(); err != nil {
		t.Fatal(err)
	}
	in := NewInstance(db)
	in.MustPut("R", data.Tuple{"k1", "a", "b"})
	in.MustPut("R", data.Tuple{"k2", data.Null, "c"})
	got, err := Reconstruct(in, s)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(in) {
		t.Fatalf("Reconstruct=%v want %v", got, in)
	}
}

func TestViewSchema(t *testing.T) {
	rel := MustRelation("R", "A", "B")
	db := MustDatabase(rel)
	s := NewCollaborative(db)
	s.MustAddView(MustView(rel, "p", []data.Attr{"A"}, nil))
	vdb, err := s.ViewSchema("p")
	if err != nil {
		t.Fatal(err)
	}
	vr := vdb.Relation("R")
	if vr == nil || vr.Arity() != 2 || vr.Attrs[1] != "A" {
		t.Fatalf("ViewSchema relation %v", vr)
	}
}
