package schema

import (
	"fmt"
	"testing"

	"collabwf/internal/cond"
	"collabwf/internal/data"
)

// FuzzTransientRel drives a transient instance with random writes —
// inserts, replacements, deletes and adoptions of stored rows — freezing
// a version (Clone) now and then and sometimes rolling on from a frozen
// version through a fresh transient. After every write the transient must
// equal a persistent oracle that took the same writes, with a valid tree,
// and every version frozen before it must still hold exactly the rows it
// held when it was frozen, rendered lines included.
func FuzzTransientRel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 4, 0, 1, 1, 2, 2, 4, 0, 3, 1})
	f.Add([]byte{0, 5, 0, 9, 0, 7, 0, 3, 0, 1, 4, 0, 2, 5, 2, 9, 1, 7, 5, 0, 0, 4, 4, 0, 2, 3})
	f.Add([]byte("transient writes never reach a frozen version"))
	db := MustDatabase(MustRelation("R", "A", "B"), MustRelation("S", "C"))
	view := MustView(db.Relation("R"), "p", []data.Attr{"A"}, cond.EqConst{Attr: "B", Const: "b1"})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 400 {
			ops = ops[:400]
		}
		oracle := NewInstance(db)
		oracle.MustPut("S", data.Tuple{"s", "c"})
		tr := oracle.Transient()
		type frozen struct {
			in, want *Instance
			lines    string
		}
		var versions []frozen
		for i := 0; i+1 < len(ops); i += 2 {
			k := data.Value(fmt.Sprintf("k%02d", ops[i+1]%24))
			row := data.Tuple{k, data.Value(fmt.Sprintf("a%d", ops[i+1]%5)), data.Value(fmt.Sprintf("b%d", ops[i+1]%3))}
			switch ops[i] % 6 {
			case 0, 1:
				tr.MustPut("R", row)
				oracle.MustPut("R", row)
			case 2:
				if got, want := tr.Delete("R", k), oracle.Delete("R", k); got != want {
					t.Fatalf("op %d: Delete(%s) = %v, oracle %v", i/2, k, got, want)
				}
			case 3:
				// Adopt a row a frozen version stores, as redoing an
				// effect does.
				if len(versions) == 0 {
					continue
				}
				v := versions[int(ops[i+1])%len(versions)].in
				for _, u := range v.Tuples("R") {
					tr.Adopt("R", u)
					oracle.MustPut("R", u)
					break
				}
			case 4:
				versions = append(versions, frozen{tr.Clone(), oracle.Clone(), renderLines(tr, view)})
			case 5:
				// Roll on from a frozen version.
				if len(versions) == 0 {
					continue
				}
				v := versions[int(ops[i+1])%len(versions)]
				tr, oracle = v.in.Transient(), v.want.Clone()
			}
			if !tr.Equal(oracle) || tr.String() != oracle.String() {
				t.Fatalf("op %d: transient %s, oracle %s", i/2, tr, oracle)
			}
			for j := range tr.rels {
				checkTree(t, tr.rels[j])
			}
			if got, want := renderLines(tr, view), renderLines(oracle, view); got != want {
				t.Fatalf("op %d: transient renders %q, oracle %q", i/2, got, want)
			}
			for j, v := range versions {
				if !v.in.Equal(v.want) || v.in.String() != v.want.String() {
					t.Fatalf("op %d: version %d changed: %s, froze as %s", i/2, j, v.in, v.want)
				}
				if got := renderLines(v.in, view); got != v.lines {
					t.Fatalf("op %d: version %d renders %q, froze as %q", i/2, j, got, v.lines)
				}
			}
		}
	})
}

// renderLines renders R's rows through v's memoized lines, the way a view
// render reads them.
func renderLines(in *Instance, v *View) string {
	var out string
	walkLines(in.rels[in.db.idx["R"]].root, v, nil, func(l *viewLine) { out += l.line + " " })
	return out
}

// Writes through a transient copy each node at most once: a second write
// on the same path allocates nothing new, and the version frozen in
// between keeps its rows.
func TestTransientWritesInPlace(t *testing.T) {
	db := MustDatabase(MustRelation("R", "A"))
	base := NewInstance(db)
	for i := 0; i < 64; i++ {
		base.MustPut("R", data.Tuple{data.Value(fmt.Sprintf("k%02d", i)), "a"})
	}
	tr := base.Transient()
	row := data.Tuple{"k31", "b"}
	tr.Adopt("R", row)
	if allocs := testing.AllocsPerRun(10, func() { tr.Adopt("R", row) }); allocs != 0 {
		t.Fatalf("rewriting an owned path allocated %.0f times, want 0", allocs)
	}
	frozen := tr.Clone()
	tr.Adopt("R", data.Tuple{"k31", "c"})
	if got, _ := frozen.Get("R", "k31"); !got.Equal(row) {
		t.Fatalf("frozen version reads %v after a later write, want %v", got, row)
	}
	if got, _ := base.Get("R", "k31"); !got.Equal(data.Tuple{"k31", "a"}) {
		t.Fatalf("source version reads %v, want (k31, a)", got)
	}
}
