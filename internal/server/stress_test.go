package server

import (
	"strings"
	"sync"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/schema"
	"collabwf/internal/wal"
	"collabwf/internal/workload"
)

// TestConcurrentSubmitStress drives N goroutine peers through the public
// API — each runs the full clear → cfo_ok → approve → hire pipeline for
// its own candidate — against a durable coordinator under the race
// detector. The final run length must equal the number of accepted
// submissions, a concurrent poller per peer must observe a
// prefix-consistent (strictly increasing, gap-free over its visible events)
// transition sequence, and the WAL must recover to the same run.
func TestConcurrentSubmitStress(t *testing.T) {
	prog := workload.Hiring()
	dir := t.TempDir()
	fp := wal.NewFailpoints()
	c, err := NewDurable("Hiring", prog, DurabilityConfig{
		Dir: dir, Sync: wal.SyncNever, Failpoints: fp,
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const perWorker = 4 // clear, cfo_ok, approve, hire
	total := workers * perWorker

	// hr sees all four relations; sue only Cleared and Hire.
	hrPoll, suePoll := startPoller(c, "hr"), startPoller(c, "sue")

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := c.Submit("hr", "clear", nil)
			if err != nil {
				errs[w] = err
				return
			}
			cand := data.Value(strings.TrimSuffix(strings.TrimPrefix(res.Updates[0], "+Cleared("), ")"))
			bind := map[string]data.Value{"x": cand}
			for _, step := range []struct {
				peer schema.Peer
				rule string
			}{{"cfo", "cfo_ok"}, {"ceo", "approve"}, {"hr", "hire"}} {
				if _, err := c.Submit(step.peer, step.rule, bind); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if c.Len() != total {
		t.Fatalf("run length %d, want %d", c.Len(), total)
	}

	// hr sees every event: its observed indices must be exactly
	// 0..total-1 in order. sue sees a strict subsequence — one clear and
	// one hire per worker — in the order of the run.
	hrSeen := hrPoll.stop(t)
	checkContiguous(t, hrSeen, total)
	checkFeed(t, c, "hr", hrSeen)
	sueSeen := suePoll.stop(t)
	if len(sueSeen) != 2*workers {
		t.Fatalf("sue observed %d transitions, want %d", len(sueSeen), 2*workers)
	}
	checkFeed(t, c, "sue", sueSeen)

	// The serialized run replays, and recovery reproduces it.
	want := captureState(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	rc, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if got := captureState(t, rc); got != want {
		t.Fatalf("recovered state diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestConcurrentSubmitWithFaults mixes concurrent submitters with armed
// WAL failpoints: some appends tear mid-record. Every Submit must either
// succeed (event in the run) or fail (no trace of it), and the final run
// must recover intact.
func TestConcurrentSubmitWithFaults(t *testing.T) {
	prog := workload.Hiring()
	dir := t.TempDir()
	fp := wal.NewFailpoints()
	c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir, Failpoints: fp})
	if err != nil {
		t.Fatal(err)
	}
	// Tear the appends of a few sequence numbers; whichever submissions
	// draw them are rejected and rolled back.
	for _, seq := range []int{2, 5, 9} {
		fp.TornWrite(seq, 3)
	}
	const n = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Submit("hr", "clear", nil); err == nil {
				mu.Lock()
				accepted++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if accepted != n-3 {
		t.Fatalf("accepted=%d, want %d", accepted, n-3)
	}
	if c.Len() != accepted {
		t.Fatalf("run length %d, want %d accepted", c.Len(), accepted)
	}
	want := captureState(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	rc, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if got := captureState(t, rc); got != want {
		t.Fatalf("recovered state diverged:\n got: %s\nwant: %s", got, want)
	}
}
