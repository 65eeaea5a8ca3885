package faithful

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"collabwf/internal/program"
	"collabwf/internal/workload"
)

// A lifecycle entry is its key and five int32s (relation, left, right,
// prev and the head of its fills) in 40 bytes; a fill is its event, a link
// and a mask of positions in 16.
func TestTableEntrySizes(t *testing.T) {
	if got := unsafe.Sizeof(lifecycle{}); got != 40 {
		t.Errorf("a lifecycle entry takes %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(fill{}); got != 16 {
		t.Errorf("a fill takes %d bytes, want 16", got)
	}
}

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
			latest.Store(m.Freeze(peer))
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
				fz := m.Freeze(peer)
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
				if want := Fixpoint(a, NewSeq(prefix.VisibleEvents(peer)...), peer); !slices.Equal(fz.Minimal(), want.Sorted()) {
					t.Fatalf("seed %d peer %s capture %d: Minimal %v, scratch %v", seed, peer, n, fz.Minimal(), want)
				}
				for f := 0; f < n; f++ {
					if want := Fixpoint(a, NewSeq(f), peer); !slices.Equal(fz.Explanation(f), want.Sorted()) {
						t.Fatalf("seed %d peer %s capture %d: Explanation(%d) %v, scratch %v",
							seed, peer, n, f, fz.Explanation(f), want)
					}
				}
			}
		}
	}
}
