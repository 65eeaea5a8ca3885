package faithful

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"testing"

	"collabwf/internal/parse"
	"collabwf/internal/program"
	"collabwf/internal/workload"
)

// One maintainer serving every peer of a program over one shared analysis
// agrees, at every prefix of seeded runs and for every peer, with the
// from-scratch fixpoints; the captures it hands out stay point-in-time; and
// the analysis's interned lifecycle tables equal a plain scan of the run's
// effects by the definitions of Section 4. The approval run adds a key
// deleted and created again.
func TestSharedMaintainerMatchesFromScratch(t *testing.T) {
	runs := map[string]*program.Run{}
	for _, name := range []string{"hiring", "crowdsourcing", "review"} {
		src, err := os.ReadFile("../../examples/specs/" + name + ".wf")
		if err != nil {
			t.Fatal(err)
		}
		spec, err := parse.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			r, err := randomRun(spec.Program, 24, seed)
			if err != nil {
				t.Fatal(err)
			}
			runs[fmt.Sprintf("%s seed %d", name, seed)] = r
		}
	}
	_, runs["approval"] = workload.Approval()

	for name, full := range runs {
		peers := full.Prog.Peers()
		inc := program.NewRunFrom(full.Prog, full.Initial)
		m := NewMaintainer(inc, peers...)
		freezeAll := func() []*Frozen {
			out := make([]*Frozen, len(peers))
			for k, p := range peers {
				out[k] = m.Freeze(p)
			}
			return out
		}
		captures := [][]*Frozen{freezeAll()}
		for i := 0; i < full.Len(); i++ {
			if err := inc.Append(full.Event(i)); err != nil {
				t.Fatal(err)
			}
			m.Sync()
			if got := m.a.Len(); got != i+1 {
				t.Fatalf("%s: analysis processed %d events after event %d", name, got, i)
			}
			checkInterned(t, m.a, inc)
			scratch := NewAnalysis(inc)
			for _, p := range peers {
				want := Fixpoint(scratch, NewSeq(inc.VisibleEvents(p)...), p)
				if !m.Minimal(p).Equal(want) {
					t.Fatalf("%s peer %s after event %d: Minimal %v, scratch %v", name, p, i, m.Minimal(p), want)
				}
				for f := 0; f <= i; f++ {
					if want := Fixpoint(scratch, NewSeq(f), p); !m.Explanation(p, f).Equal(want) {
						t.Fatalf("%s peer %s after event %d: Explanation(%d) %v, scratch %v",
							name, p, i, f, m.Explanation(p, f), want)
					}
				}
			}
			captures = append(captures, freezeAll())
		}

		for n, fzs := range captures {
			prefix := program.NewRunFrom(full.Prog, full.Initial)
			for i := 0; i < n; i++ {
				prefix.MustAppend(full.Event(i))
			}
			a := NewAnalysis(prefix)
			for k, p := range peers {
				fz := fzs[k]
				if fz.Len() != n {
					t.Fatalf("%s peer %s: capture %d covers %d events", name, p, n, fz.Len())
				}
				if want := prefix.VisibleEvents(p); !slices.Equal(fz.Visible(), want) {
					t.Fatalf("%s peer %s capture %d: Visible %v, want %v", name, p, n, fz.Visible(), want)
				}
				if want := Fixpoint(a, NewSeq(prefix.VisibleEvents(p)...), p).Sorted(); !slices.Equal(fz.Minimal(), want) {
					t.Fatalf("%s peer %s capture %d: Minimal %v, scratch %v", name, p, n, fz.Minimal(), want)
				}
				for f := 0; f < n; f++ {
					if want := Fixpoint(a, NewSeq(f), p).Sorted(); !slices.Equal(fz.Explanation(f), want) {
						t.Fatalf("%s peer %s capture %d: Explanation(%d) %v, scratch %v",
							name, p, n, f, fz.Explanation(f), want)
					}
				}
			}
		}
	}
}

// scannedLifecycle is a lifecycle found by scanning the run's effects,
// with the events that filled attributes of its tuple.
type scannedLifecycle struct {
	Lifecycle
	fills []int
}

// scanLifecycles derives every lifecycle of r's first n events from
// Section 4's definition: a tuple of the initial instance opens one before
// the run, an event creating a tuple with key k opens one, the event
// deleting it closes it, and an event filling attributes of the tuple in
// between is one of its fills. Per key, in order.
func scanLifecycles(r *program.Run, n int) map[lcID][]*scannedLifecycle {
	out := make(map[lcID][]*scannedLifecycle)
	for _, rel := range r.Prog.Schema.DB.Names() {
		for _, k := range r.Initial.Keys(rel) {
			out[lcID{rel, k}] = []*scannedLifecycle{{Lifecycle: Lifecycle{Rel: rel, Key: k, Left: -1, Right: -1}}}
		}
	}
	for i := 0; i < n; i++ {
		for _, ef := range r.Effects(i) {
			id := lcID{ef.Rel, ef.Key}
			cs := out[id]
			switch ef.Kind {
			case program.Created:
				out[id] = append(cs, &scannedLifecycle{Lifecycle: Lifecycle{Rel: ef.Rel, Key: ef.Key, Left: i, Right: -1}})
			case program.Deleted:
				cs[len(cs)-1].Right = i
			case program.Modified:
				if len(ef.Filled) > 0 {
					cs[len(cs)-1].fills = append(cs[len(cs)-1].fills, i)
				}
			}
		}
	}
	return out
}

// checkInterned compares the analysis's interned tables with the scan: the
// lifecycles, each lifecycle's fills, per event the lifecycle containing it
// for every key of K(R, e), and per event the lifecycles it closed.
func checkInterned(t *testing.T, a *Analysis, r *program.Run) {
	t.Helper()
	scan := scanLifecycles(r, a.Len())
	var want []Lifecycle
	for _, cs := range scan {
		for _, c := range cs {
			want = append(want, c.Lifecycle)
		}
	}
	sortLifecycles(want)
	if got := a.Lifecycles(); !slices.Equal(got, want) {
		t.Fatalf("after %d events: interned lifecycles %v, scan %v", a.Len(), got, want)
	}
	for l := range a.lcs {
		lc := &a.lcs[l]
		var fills []int
		for _, f := range lc.fills {
			if len(fills) == 0 || fills[len(fills)-1] != f.event {
				fills = append(fills, f.event)
			}
		}
		for _, c := range scan[lcID{lc.Rel, lc.Key}] {
			if c.Left == lc.Left && !slices.Equal(c.fills, fills) {
				t.Fatalf("after %d events: %v fills %v, scan %v", a.Len(), lc.Lifecycle, fills, c.fills)
			}
		}
	}
	for i := 0; i < a.Len(); i++ {
		e := r.Event(i)
		var wantKeys []Lifecycle
		for _, rk := range e.AppendKeys(nil) {
			if c := firstContaining(scan[lcID{rk.Rel, rk.Key}], i); c != nil {
				wantKeys = append(wantKeys, c.Lifecycle)
			}
		}
		if got := resolve(a, a.keyLCs.row(i)); !slices.Equal(got, wantKeys) {
			t.Fatalf("event %d: key lifecycles %v, scan %v", i, got, wantKeys)
		}
		var wantCloses []Lifecycle
		for _, cs := range scan {
			for _, c := range cs {
				if c.Right == i {
					wantCloses = append(wantCloses, c.Lifecycle)
				}
			}
		}
		gotCloses := resolve(a, a.closes.row(i))
		sortLifecycles(wantCloses)
		sortLifecycles(gotCloses)
		if !slices.Equal(gotCloses, wantCloses) {
			t.Fatalf("event %d: closes %v, scan %v", i, gotCloses, wantCloses)
		}
	}
}

func firstContaining(cs []*scannedLifecycle, i int) *scannedLifecycle {
	for _, c := range cs {
		if c.Contains(i) {
			return c
		}
	}
	return nil
}

func resolve(a *Analysis, ids []int32) []Lifecycle {
	var out []Lifecycle
	for _, l := range ids {
		out = append(out, a.lcs[l].Lifecycle)
	}
	return out
}

func sortLifecycles(lcs []Lifecycle) {
	slices.SortFunc(lcs, func(x, y Lifecycle) int {
		if c := cmp.Compare(x.Rel, y.Rel); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Key, y.Key); c != 0 {
			return c
		}
		return cmp.Compare(x.Left, y.Left)
	})
}
