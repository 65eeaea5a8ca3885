package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"collabwf/internal/schema"
	"collabwf/internal/wal"
	"collabwf/internal/workload"
)

// feedPoller follows one peer's transitions the way every in-process
// listener does — Wait until the released prefix passes its cursor, then
// Transitions from the cursor — and records every transition it observes,
// in observation order.
type feedPoller struct {
	c      *Coordinator
	peer   schema.Peer
	cancel context.CancelFunc
	done   chan struct{}
	from   int
	seen   []Notification
	err    error
}

// startPoller starts a poller from cursor 0 on its own goroutine.
func startPoller(c *Coordinator, peer schema.Peer) *feedPoller {
	ctx, cancel := context.WithCancel(context.Background())
	p := &feedPoller{c: c, peer: peer, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		for {
			if _, err := c.Wait(ctx, p.from); err != nil {
				if ctx.Err() == nil && !errors.Is(err, errShutDown) {
					p.err = err
				}
				return
			}
			if !p.read() {
				return
			}
		}
	}()
	return p
}

// read polls the transitions past the cursor and advances it to the length
// the same snapshot reported.
func (p *feedPoller) read() bool {
	ts, n, err := p.c.Transitions(p.peer, p.from)
	if err != nil {
		p.err = err
		return false
	}
	p.seen = append(p.seen, ts...)
	p.from = n
	return true
}

// stop ends the poller, reads whatever was released after its last poll,
// and returns everything it observed.
func (p *feedPoller) stop(t *testing.T) []Notification {
	t.Helper()
	p.cancel()
	<-p.done
	if p.err == nil {
		p.read()
	}
	if p.err != nil {
		t.Fatalf("poller(%s): %v", p.peer, p.err)
	}
	return p.seen
}

// checkFeed asserts that seen is the peer's final feed, transition for
// transition: indices strictly increasing with none skipped, and every
// observed transition identical to the final one at its index — a
// rolled-back event surfacing at a reused index would differ. Because is
// left out: a closure may absorb later lifecycle closes.
func checkFeed(t *testing.T, c *Coordinator, peer schema.Peer, seen []Notification) {
	t.Helper()
	final, _, err := c.Transitions(peer, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(final) {
		t.Fatalf("%s observed %d transitions, the released run has %d", peer, len(seen), len(final))
	}
	for i, got := range seen {
		want := final[i]
		if got.Index != want.Index || got.Omega != want.Omega || got.Rule != want.Rule || got.View != want.View {
			t.Fatalf("%s's transition %d diverged from the released run:\n seen: %+v\n want: %+v", peer, i, got, want)
		}
	}
}

// checkContiguous asserts that seen holds exactly the indices 0..n-1.
func checkContiguous(t *testing.T, seen []Notification, n int) {
	t.Helper()
	if len(seen) != n {
		t.Fatalf("observed %d transitions, want %d", len(seen), n)
	}
	for i, s := range seen {
		if s.Index != i {
			t.Fatalf("transition %d has index %d: not contiguous and in order", i, s.Index)
		}
	}
}

// waitResult is what one waiter saw: Wait's answer, and Len() read right
// after it returned.
type waitResult struct {
	n, lenAfter int
	err         error
}

// startWaiters blocks k goroutines in Wait(ctx, from).
func startWaiters(c *Coordinator, ctx context.Context, k, from int) <-chan waitResult {
	out := make(chan waitResult, k)
	for i := 0; i < k; i++ {
		go func() {
			n, err := c.Wait(ctx, from)
			out <- waitResult{n, c.Len(), err}
		}()
	}
	return out
}

// collect receives k results, failing after a generous timeout.
func collect(t *testing.T, res <-chan waitResult, k int) []waitResult {
	t.Helper()
	var out []waitResult
	for len(out) < k {
		select {
		case r := <-res:
			out = append(out, r)
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d waiters still blocked", k-len(out), k)
		}
	}
	return out
}

// TestWait pins the change feed's one blocking call with eight concurrent
// waiters per case: it answers at once when the prefix is already past the
// cursor, wakes on the next release with a length every later read
// observes, honours cancellation, and answers the shut-down error to
// waiters blocked across Close or Crash and to calls made afterwards.
func TestWait(t *testing.T) {
	const k = 8
	bg := context.Background()
	prog := workload.Hiring()

	t.Run("ready", func(t *testing.T) {
		c := New("Hiring", prog)
		if _, err := c.Submit("hr", "clear", nil); err != nil {
			t.Fatal(err)
		}
		for _, r := range collect(t, startWaiters(c, bg, k, 0), k) {
			if r.err != nil || r.n != 1 {
				t.Fatalf("Wait(0) on a 1-event run = (%d, %v), want (1, nil)", r.n, r.err)
			}
		}
	})

	t.Run("release", func(t *testing.T) {
		c := New("Hiring", prog)
		if _, err := c.Submit("hr", "clear", nil); err != nil {
			t.Fatal(err)
		}
		from := c.Len()
		res := startWaiters(c, bg, k, from)
		select {
		case r := <-res:
			t.Fatalf("waiter returned %+v before any release", r)
		case <-time.After(20 * time.Millisecond):
		}
		if _, err := c.Submit("hr", "clear", nil); err != nil {
			t.Fatal(err)
		}
		for _, r := range collect(t, res, k) {
			if r.err != nil || r.n < from+1 {
				t.Fatalf("woken with (%d, %v), want n ≥ %d", r.n, r.err, from+1)
			}
			if r.lenAfter < r.n {
				t.Fatalf("woken with n = %d but then read Len() = %d", r.n, r.lenAfter)
			}
		}
	})

	t.Run("cancel", func(t *testing.T) {
		c := New("Hiring", prog)
		ctx, cancel := context.WithCancel(bg)
		res := startWaiters(c, ctx, k, c.Len())
		cancel()
		for _, r := range collect(t, res, k) {
			if !errors.Is(r.err, context.Canceled) {
				t.Fatalf("cancelled waiter returned (%d, %v), want context.Canceled", r.n, r.err)
			}
		}
	})

	// shutDown runs one shutdown case: waiters blocked at Len() across
	// stop, then a call made after it.
	shutDown := func(t *testing.T, c *Coordinator, stop func() error) {
		t.Helper()
		if _, err := c.Submit("hr", "clear", nil); err != nil {
			t.Fatal(err)
		}
		from := c.Len()
		res := startWaiters(c, bg, k, from)
		if err := stop(); err != nil {
			t.Fatal(err)
		}
		for _, r := range collect(t, res, k) {
			if !errors.Is(r.err, errShutDown) {
				t.Fatalf("waiter blocked across shutdown returned (%d, %v), want the shut-down error", r.n, r.err)
			}
		}
		if _, err := c.Wait(bg, from); !errors.Is(err, errShutDown) {
			t.Fatalf("Wait after shutdown = %v, want the shut-down error", err)
		}
		// The released prefix stays readable: a cursor behind it answers.
		if n, err := c.Wait(bg, 0); err != nil || n != from {
			t.Fatalf("Wait(0) after shutdown = (%d, %v), want (%d, nil)", n, err, from)
		}
	}

	t.Run("close", func(t *testing.T) {
		c := New("Hiring", prog)
		shutDown(t, c, c.Close)
		if err := c.Close(); err != nil {
			t.Fatal("second Close must be a nil no-op:", err)
		}
	})

	t.Run("close_durable", func(t *testing.T) {
		c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: t.TempDir(), Sync: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		shutDown(t, c, c.Close)
		if err := c.Close(); err != nil {
			t.Fatal("second Close must be a nil no-op:", err)
		}
	})

	t.Run("crash", func(t *testing.T) {
		c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: t.TempDir(), Sync: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		shutDown(t, c, func() error { _, _, err := c.Crash(); return err })
	})
}
