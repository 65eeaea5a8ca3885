package schema

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"collabwf/internal/data"
)

// What each stored row costs: a tree node is a row pointer, two links and
// one word of height and edit token; a row record is its tuple and its
// memo head; a view's memo of a row is two pointers and two flags.
func TestStoredSizes(t *testing.T) {
	for _, c := range []struct {
		what      string
		got, want uintptr
	}{
		{"tree node", unsafe.Sizeof(pnode{}), 32},
		{"row record", unsafe.Sizeof(Row{}), 32},
		{"row memo", unsafe.Sizeof(rowView{}), 24},
	} {
		if c.got != c.want {
			t.Errorf("a %s takes %d bytes, want %d", c.what, c.got, c.want)
		}
	}
}

// checkTree verifies the persistent tree's invariants: keys strictly
// ascending in order, stored heights exact, sibling heights within 2, and
// the cached size equal to the node count.
func checkTree(t *testing.T, r prel) {
	t.Helper()
	var prev data.Value
	count := 0
	var rec func(n *pnode) int
	rec = func(n *pnode) int {
		if n == nil {
			return 0
		}
		hl := rec(n.left)
		if count > 0 && !(prev < n.key()) {
			t.Fatalf("keys out of order: %s then %s", prev, n.key())
		}
		prev = n.key()
		count++
		hr := rec(n.right)
		if hl-hr > 2 || hr-hl > 2 {
			t.Fatalf("unbalanced at %s: heights %d/%d", n.key(), hl, hr)
		}
		if h := max(hl, hr) + 1; height(n) != h {
			t.Fatalf("stale height at %s: %d, want %d", n.key(), height(n), h)
		}
		return height(n)
	}
	rec(r.root)
	if count != r.n {
		t.Fatalf("size %d, tree holds %d rows", r.n, count)
	}
}

type oracleRows map[data.Value]data.Tuple

func (o oracleRows) clone() oracleRows {
	out := make(oracleRows, len(o))
	for k, v := range o {
		out[k] = v
	}
	return out
}

// sameAsOracle checks in against a plain-map oracle of relation R: every
// key and tuple, the count, and in-order iteration equal to the sorted keys.
func sameAsOracle(t *testing.T, in *Instance, want oracleRows, label string) {
	t.Helper()
	if in.Count("R") != len(want) {
		t.Fatalf("%s: Count=%d, oracle has %d", label, in.Count("R"), len(want))
	}
	keys := make([]data.Value, 0, len(want))
	for k, tup := range want {
		keys = append(keys, k)
		got, ok := in.Get("R", k)
		if !ok || !got.Equal(tup) {
			t.Fatalf("%s: Get(%s)=%v,%v, oracle %v", label, k, got, ok, tup)
		}
	}
	data.SortValues(keys)
	gotKeys := in.Keys("R")
	tuples := in.Tuples("R")
	if len(gotKeys) != len(keys) || len(tuples) != len(keys) {
		t.Fatalf("%s: %d keys / %d tuples, oracle %d", label, len(gotKeys), len(tuples), len(keys))
	}
	for i, k := range keys {
		if gotKeys[i] != k || tuples[i].Key() != k {
			t.Fatalf("%s: position %d iterates %s/%s, sorted oracle %s", label, i, gotKeys[i], tuples[i].Key(), k)
		}
	}
	checkTree(t, in.rels[in.db.idx["R"]])
}

// Seeded random Put/Delete/ChaseInsert sequences agree with a plain-map
// oracle after every write, iterate in key order, and leave every earlier
// version (clones and ChaseInsert predecessors) exactly as it was.
func TestPersistentRelationMatchesMapOracle(t *testing.T) {
	db := MustDatabase(MustRelation("R", "A", "B"), MustRelation("S", "C"))
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		val := func() data.Value {
			if rng.Intn(3) == 0 {
				return data.Null
			}
			return data.Value(fmt.Sprintf("v%d", rng.Intn(3)))
		}
		in := NewInstance(db)
		in.MustPut("S", data.Tuple{"s", "c"})
		oracle := oracleRows{}
		type version struct {
			in     *Instance
			oracle oracleRows
		}
		var versions []version
		for op := 0; op < 300; op++ {
			k := data.Value(fmt.Sprintf("k%02d", rng.Intn(40)))
			switch rng.Intn(4) {
			case 0, 1:
				tup := data.Tuple{k, val(), val()}
				in.MustPut("R", tup)
				oracle[k] = tup.Clone()
			case 2:
				_, had := oracle[k]
				if in.Delete("R", k) != had {
					t.Fatalf("seed %d op %d: Delete(%s) reported %v, oracle had %v", seed, op, k, !had, had)
				}
				delete(oracle, k)
			case 3:
				tup := data.Tuple{k, val(), val()}
				next, merged, err := in.ChaseInsert("R", tup)
				want := tup.Clone()
				conflict := false
				if old, ok := oracle[k]; ok {
					for i := range want {
						switch {
						case want[i].IsNull():
							want[i] = old[i]
						case old[i].IsNull() || old[i] == want[i]:
						default:
							conflict = true
						}
					}
				}
				if conflict != (err != nil) {
					t.Fatalf("seed %d op %d: ChaseInsert(%v) err=%v, oracle conflict=%v", seed, op, tup, err, conflict)
				}
				if err != nil {
					continue
				}
				if !merged.Equal(want) {
					t.Fatalf("seed %d op %d: merged %v, oracle %v", seed, op, merged, want)
				}
				versions = append(versions, version{in, oracle.clone()})
				in = next
				oracle[k] = want
			}
			sameAsOracle(t, in, oracle, fmt.Sprintf("seed %d op %d", seed, op))
			if op%7 == 0 {
				versions = append(versions, version{in.Clone(), oracle.clone()})
			}
		}
		for i, v := range versions {
			sameAsOracle(t, v.in, v.oracle, fmt.Sprintf("seed %d version %d", seed, i))
			if got, _ := v.in.Get("S", "s"); !got.Equal(data.Tuple{"s", "c"}) {
				t.Fatalf("seed %d version %d: untouched relation changed: %v", seed, i, got)
			}
		}
	}
}
