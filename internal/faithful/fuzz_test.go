package faithful

import (
	"slices"
	"testing"

	"collabwf/internal/program"
	"collabwf/internal/workload"
)

// FuzzFrozenMatchesFixpoint grows a seeded random run of one of four
// programs — crowdsourcing with two workers, the revision chain (random
// revise bindings make it a revision tree), Hiring, or Drop, whose events
// invisible to p close lifecycles holding keys of events p saw — through
// one maintainer of every peer, freezing after each event. Once the run is
// complete, every capture's Minimal and Explanation(f) must equal the
// from-scratch fixpoint over the capture's prefix.
//
//	go test ./internal/faithful/ -run '^$' -fuzz FuzzFrozenMatchesFixpoint -fuzztime 10s
func FuzzFrozenMatchesFixpoint(f *testing.F) {
	crowd, err := workload.Crowdsourcing(2)
	if err != nil {
		f.Fatal(err)
	}
	progs := []*program.Program{crowd, workload.Revisions(), workload.Hiring(), dropProgram(f)}
	for k := range progs {
		f.Add(uint8(k), int64(1), uint8(40))
	}
	f.Fuzz(func(t *testing.T, which uint8, seed int64, length uint8) {
		prog := progs[int(which)%len(progs)]
		full, err := randomRun(prog, int(length)%41, seed)
		if err != nil {
			t.Fatal(err)
		}
		peers := prog.Peers()
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
			inc.MustAppend(full.Event(i))
			m.Sync()
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
				if want := Fixpoint(a, NewSeq(prefix.VisibleEvents(p)...), p).Sorted(); !slices.Equal(fz.Minimal(), want) {
					t.Fatalf("peer %s capture %d: Minimal %v, fixpoint %v", p, n, fz.Minimal(), want)
				}
				for e := 0; e < n; e++ {
					if want := Fixpoint(a, NewSeq(e), p).Sorted(); !slices.Equal(fz.Explanation(e), want) {
						t.Fatalf("peer %s capture %d: Explanation(%d) %v, fixpoint %v", p, n, e, fz.Explanation(e), want)
					}
				}
			}
		}
	})
}
