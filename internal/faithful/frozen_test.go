package faithful

import (
	"sync"
	"sync/atomic"
	"testing"

	"collabwf/internal/program"
	"collabwf/internal/workload"
)

// A capture taken after n events keeps answering for exactly those n
// events while the maintainer goes on absorbing later lifecycle closings
// into the closures it shares: every capture equals the from-scratch
// fixpoint over its prefix. A reader goroutine polls the newest capture
// throughout, so -race checks that maintenance never writes what a
// capture reads.
func TestFrozenCapturesArePointInTime(t *testing.T) {
	p, err := workload.Crowdsourcing(2)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		full, err := randomRun(p, 30, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, peer := range p.Peers() {
			inc := program.NewRunFrom(full.Prog, full.Initial)
			m := NewMaintainer(inc, peer)
			var latest atomic.Pointer[Frozen]
			latest.Store(m.Freeze())
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					fz := latest.Load()
					for i := 0; i < fz.Len(); i++ {
						fz.Explanation(i)
					}
					fz.Minimal()
				}
			}()
			captures := []*Frozen{latest.Load()}
			for i := 0; i < full.Len(); i++ {
				if err := inc.Append(full.Event(i)); err != nil {
					t.Fatal(err)
				}
				m.Sync()
				fz := m.Freeze()
				latest.Store(fz)
				captures = append(captures, fz)
			}
			close(stop)
			wg.Wait()

			for n, fz := range captures {
				if fz.Len() != n {
					t.Fatalf("capture %d covers %d events", n, fz.Len())
				}
				prefix := program.NewRunFrom(full.Prog, full.Initial)
				for i := 0; i < n; i++ {
					prefix.MustAppend(full.Event(i))
				}
				a := NewAnalysis(prefix)
				if want := Fixpoint(a, NewSeq(prefix.VisibleEvents(peer)...), peer); !fz.Minimal().Equal(want) {
					t.Fatalf("seed %d peer %s capture %d: Minimal %v, scratch %v", seed, peer, n, fz.Minimal(), want)
				}
				for f := 0; f < n; f++ {
					if want := Fixpoint(a, NewSeq(f), peer); !fz.Explanation(f).Equal(want) {
						t.Fatalf("seed %d peer %s capture %d: Explanation(%d) %v, scratch %v",
							seed, peer, n, f, fz.Explanation(f), want)
					}
				}
			}
		}
	}
}
