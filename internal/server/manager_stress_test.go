package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"collabwf/internal/core"
	"collabwf/internal/data"
	"collabwf/internal/schema"
	"collabwf/internal/wal"
	"collabwf/internal/workload"
)

// TestFleetStressRace hammers one Manager with eight runs at once — every
// run's driver pushes candidates through the full hiring pipeline while
// HTTP readers poll views and transitions across the fleet and two runs
// certify concurrently. Afterwards each run's served answers (trace, views,
// scenarios) must be byte-identical to a sequential replay of that run's
// submissions on a fresh coordinator, and a full-fleet crash must recover
// every run to exactly its pre-crash state. Run under -race this is the
// isolation proof for the shard layer: no run's locks, caches, or counters
// may bleed into a sibling's.
func TestFleetStressRace(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet stress skipped in -short mode")
	}
	prog := workload.Hiring()
	dir := t.TempDir()
	cfg := ManagerConfig{
		Workflow: "Hiring",
		Prog:     prog,
		DataDir:  dir,
		// SyncAlways so everything acked survives the crash below and the
		// recovered fleet can be compared byte-for-byte.
		Durability: DurabilityConfig{Sync: wal.SyncAlways},
	}
	m := newTestManager(t, cfg)

	const fleet = 8
	const cands = 3 // pipelines per run: 4 events each
	ids := make([]string, fleet)
	for i := range ids {
		ids[i] = fmt.Sprintf("run-%d", i)
		if err := m.CreateRun(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	h := m.Handler()

	// Readers poll the HTTP surface across the whole fleet for the entire
	// drive; any non-200 is a routing or isolation failure.
	stop := make(chan struct{})
	var readErrs atomic.Int64
	var readerWG sync.WaitGroup
	for r := 0; r < 4; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[(r+i)%fleet]
				for _, path := range []string{
					"/runs/" + id + "/view?peer=hr",
					"/runs/" + id + "/transitions?peer=sue&from=0",
				} {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
					if rec.Code != http.StatusOK {
						readErrs.Add(1)
					}
				}
			}
		}(r)
	}

	// Two runs certify while everyone submits: the search must not block or
	// corrupt sibling shards.
	var certifyWG sync.WaitGroup
	for _, id := range ids[:2] {
		certifyWG.Add(1)
		go func(id string) {
			defer certifyWG.Done()
			c, _ := m.Run(id)
			_ = c.Certify(context.Background(), "sue", 4,
				core.Options{PoolFresh: 2, MaxTuplesPerRelation: 1})
		}(id)
	}

	type submission struct {
		peer schema.Peer
		rule string
		bind map[string]data.Value
	}
	subs := make([][]submission, fleet)
	errs := make([]error, fleet)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			c, ok := m.Run(id)
			if !ok {
				errs[i] = fmt.Errorf("run %s not routable", id)
				return
			}
			for k := 0; k < cands; k++ {
				cand := data.Value(fmt.Sprintf("%s-c%d", id, k))
				bind := map[string]data.Value{"x": cand}
				for _, s := range []submission{
					{"hr", "clear", bind},
					{"cfo", "cfo_ok", bind},
					{"ceo", "approve", bind},
					{"hr", "hire", bind},
				} {
					if _, err := c.Submit(s.peer, s.rule, s.bind); err != nil {
						errs[i] = fmt.Errorf("%s %s/%s: %w", id, s.peer, s.rule, err)
						return
					}
					subs[i] = append(subs[i], s)
				}
			}
		}(i, id)
	}
	wg.Wait()
	certifyWG.Wait()
	close(stop)
	readerWG.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("driver %d: %v", i, err)
		}
	}
	if n := readErrs.Load(); n != 0 {
		t.Fatalf("%d reader requests failed during the drive", n)
	}

	// Byte-identical answers: replaying each run's exact submissions,
	// sequentially, on a fresh in-memory coordinator must reproduce the
	// served trace, every peer view, and every peer scenario.
	states := make(map[string]string, fleet)
	for i, id := range ids {
		c, _ := m.Run(id)
		if c.Len() != cands*4 {
			t.Fatalf("run %s length %d, want %d", id, c.Len(), cands*4)
		}
		want := captureState(t, c)
		states[id] = want
		replay := New("Hiring", prog)
		for j, s := range subs[i] {
			if _, err := replay.Submit(s.peer, s.rule, s.bind); err != nil {
				t.Fatalf("replaying %s submission %d: %v", id, j, err)
			}
		}
		if got := captureState(t, replay); got != want {
			t.Fatalf("run %s diverged from its sequential replay:\n got: %s\nwant: %s", id, got, want)
		}
	}

	// Full-fleet crash: every shard loses its process image at once; a fresh
	// manager's recovery scan must bring every run back byte-identical.
	for _, s := range m.allShards() {
		if _, _, err := s.c.Crash(); err != nil {
			t.Fatalf("crashing run %s: %v", s.id, err)
		}
	}
	m2 := newTestManager(t, cfg)
	for _, id := range ids {
		c, ok := m2.Run(id)
		if !ok {
			t.Fatalf("run %s not recovered after fleet crash", id)
		}
		if got := captureState(t, c); got != states[id] {
			t.Fatalf("run %s recovered state diverged:\n got: %s\nwant: %s", id, got, states[id])
		}
	}
}
