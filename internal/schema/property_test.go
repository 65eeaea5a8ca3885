package schema

import (
	"math/rand"
	"testing"

	"collabwf/internal/cond"
	"collabwf/internal/data"
)

// randomInstance fills R(K, A, B) with random tuples over a small value
// universe (⊥ allowed on non-key attributes).
func randomInstance(rng *rand.Rand, db *Database, rel string, n int) *Instance {
	vals := []data.Value{"a", "b", "c", data.Null}
	in := NewInstance(db)
	for i := 0; i < n; i++ {
		t := data.Tuple{
			data.Value(string(rune('k')) + string(rune('0'+rng.Intn(8)))),
			vals[rng.Intn(len(vals))],
			vals[rng.Intn(len(vals))],
		}
		in.MustPut(rel, t)
	}
	return in
}

// Losslessness in action: for schemas passing CheckLossless, every valid
// instance is reconstructible from the collective peer views via the chase
// (the defining property of Definition 2.1).
func TestReconstructPropertyLossless(t *testing.T) {
	rel := MustRelation("R", "A", "B")
	db := MustDatabase(rel)
	schemas := []*Collaborative{}
	// Split columns.
	s1 := NewCollaborative(db)
	s1.MustAddView(MustView(rel, "p", []data.Attr{"A"}, nil))
	s1.MustAddView(MustView(rel, "q", []data.Attr{"B"}, nil))
	schemas = append(schemas, s1)
	// Complementary selections, both full-width.
	s2 := NewCollaborative(db)
	s2.MustAddView(MustView(rel, "p", []data.Attr{"A", "B"}, cond.EqConst{Attr: "A", Const: "a"}))
	s2.MustAddView(MustView(rel, "q", []data.Attr{"A", "B"}, cond.Not{C: cond.EqConst{Attr: "A", Const: "a"}}))
	schemas = append(schemas, s2)
	// Overlapping projections.
	s3 := NewCollaborative(db)
	s3.MustAddView(MustView(rel, "p", []data.Attr{"A", "B"}, nil))
	s3.MustAddView(MustView(rel, "q", []data.Attr{"B"}, nil))
	schemas = append(schemas, s3)

	rng := rand.New(rand.NewSource(3))
	for si, s := range schemas {
		if err := s.CheckLossless(); err != nil {
			t.Fatalf("schema %d must be lossless: %v", si, err)
		}
		for trial := 0; trial < 200; trial++ {
			in := randomInstance(rng, db, "R", rng.Intn(6))
			got, err := Reconstruct(in, s)
			if err != nil {
				t.Fatalf("schema %d: %v", si, err)
			}
			if !got.Equal(in) {
				t.Fatalf("schema %d: Reconstruct(%s) = %s", si, in, got)
			}
		}
	}
}

// For a schema failing CheckLossless there exists an instance that does
// not survive reconstruction (the check is not vacuously strict).
func TestLossyWitnessExists(t *testing.T) {
	rel := MustRelation("R", "A", "B")
	db := MustDatabase(rel)
	s := NewCollaborative(db)
	// Nobody projects B.
	s.MustAddView(MustView(rel, "p", []data.Attr{"A"}, nil))
	if err := s.CheckLossless(); err == nil {
		t.Fatal("schema must be lossy")
	}
	in := NewInstance(db)
	in.MustPut("R", data.Tuple{"k", "a", "b"})
	got, err := Reconstruct(in, s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Equal(in) {
		t.Fatal("reconstruction should lose attribute B")
	}
}

// ViewOf is consistent with Sees/Project on random instances: every
// visible tuple is the projection of a selected base tuple, and every
// selected base tuple appears.
func TestViewOfConsistency(t *testing.T) {
	rel := MustRelation("R", "A", "B")
	db := MustDatabase(rel)
	s := NewCollaborative(db)
	v := MustView(rel, "p", []data.Attr{"A"},
		cond.Or{Cs: []cond.Condition{
			cond.EqConst{Attr: "B", Const: "b"},
			cond.EqConst{Attr: "A", Const: data.Null},
		}})
	s.MustAddView(v)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		in := randomInstance(rng, db, "R", rng.Intn(6))
		vi := ViewOf(in, s, "p")
		seen := 0
		for _, base := range in.Tuples("R") {
			if v.Sees(base, nil) {
				seen++
				got, ok := vi.Get("R", base.Key())
				if !ok || !got.Equal(v.Project(base)) {
					t.Fatalf("selected tuple %v missing or wrong in view", base)
				}
			} else if vi.HasKey("R", base.Key()) {
				t.Fatalf("unselected tuple %v leaked into view", base)
			}
		}
		if len(vi.Tuples("R")) != seen {
			t.Fatalf("view has %d tuples, want %d", len(vi.Tuples("R")), seen)
		}
	}
}

// Chase-insert is order-insensitive for tuples with distinct keys and
// idempotent for identical tuples.
func TestChaseInsertProperties(t *testing.T) {
	rel := MustRelation("R", "A", "B")
	db := MustDatabase(rel)
	rng := rand.New(rand.NewSource(12))
	vals := []data.Value{"a", "b", data.Null}
	for trial := 0; trial < 300; trial++ {
		t1 := data.Tuple{"k1", vals[rng.Intn(3)], vals[rng.Intn(3)]}
		t2 := data.Tuple{"k2", vals[rng.Intn(3)], vals[rng.Intn(3)]}
		base := NewInstance(db)
		a, _, err1 := base.ChaseInsert("R", t1)
		if err1 != nil {
			t.Fatal(err1)
		}
		ab, _, err2 := a.ChaseInsert("R", t2)
		if err2 != nil {
			t.Fatal(err2)
		}
		b, _, err3 := base.ChaseInsert("R", t2)
		if err3 != nil {
			t.Fatal(err3)
		}
		ba, _, err4 := b.ChaseInsert("R", t1)
		if err4 != nil {
			t.Fatal(err4)
		}
		if !ab.Equal(ba) {
			t.Fatalf("distinct-key chase not commutative: %s vs %s", ab, ba)
		}
		// Idempotence.
		again, _, err := ab.ChaseInsert("R", t1)
		if err != nil || !again.Equal(ab) {
			t.Fatalf("chase not idempotent: %v %s", err, again)
		}
	}
}
