package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"collabwf/internal/obs"
	"collabwf/internal/schema"
	"collabwf/internal/wal"
	"collabwf/internal/workload"
)

// gaugeValue sums a family's series values on the registry.
func gaugeValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	for _, fam := range reg.Gather() {
		if fam.Name != name {
			continue
		}
		total := 0.0
		for _, s := range fam.Series {
			total += s.Value
		}
		return total
	}
	t.Fatalf("family %s not registered", name)
	return 0
}

// TestCloseClosesSubscriberChannels is the regression test for the shutdown
// bug: Close used to leave subscriber channels open, so a client ranging
// over one hung forever and the wf_subscribers gauge stayed stale.
func TestCloseClosesSubscriberChannels(t *testing.T) {
	reg := obs.NewRegistry()
	c := New("Hiring", workload.Hiring())
	c.InstrumentRun(reg, DefaultRun)
	ch, cancel, err := c.Subscribe("hr", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Subscribe("sue", 8); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("hr", "clear", nil); err != nil {
		t.Fatal(err)
	}

	done := make(chan int)
	go func() {
		// The ranging consumer: must exit once Close closes the channel.
		got := 0
		for range ch {
			got++
		}
		done <- got
	}()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if got != 1 {
			t.Fatalf("consumer received %d notifications, want 1", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ranging consumer still blocked after Close")
	}
	if n := c.Subscribers(); n != 0 {
		t.Fatalf("Subscribers() = %d after Close, want 0", n)
	}
	if g := gaugeValue(t, reg, "wf_subscribers"); g != 0 {
		t.Fatalf("wf_subscribers = %v after Close, want 0", g)
	}
	// cancel after Close must be a safe no-op (the channel is already closed
	// and unregistered; cancel must not double-close or go negative).
	cancel()
	cancel()
	if g := gaugeValue(t, reg, "wf_subscribers"); g != 0 {
		t.Fatalf("wf_subscribers = %v after post-Close cancel, want 0", g)
	}
	if _, _, err := c.Subscribe("hr", 8); err == nil {
		t.Fatal("Subscribe after Close must be rejected")
	}
}

// TestCloseClosesSubscribersDurable runs the same shutdown contract through
// the durable path, where Close additionally drains the commit queue and
// writes the final snapshot before closing the channels.
func TestCloseClosesSubscribersDurable(t *testing.T) {
	c, err := NewDurable("Hiring", workload.Hiring(), DurabilityConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ch, _, err := c.Subscribe("hr", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("hr", "clear", nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for range ch {
		}
		close(done)
	}()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ranging consumer still blocked after durable Close")
	}
	if err := c.Close(); err != nil {
		t.Fatal("second Close must be a nil no-op:", err)
	}
}

// TestTransitionsIncrementalMatchesRescan pins the polling optimization:
// the cached visible-index answer must equal a brute-force rescan of the
// whole run, for every peer and every from cursor, interleaved with new
// submissions (which extend the cache incrementally).
func TestTransitionsIncrementalMatchesRescan(t *testing.T) {
	prog := workload.Hiring()
	subs := randomWorkload(t, prog, 11, 12)
	c := New("Hiring", prog)

	// bruteForce recomputes the peer's visible transitions from scratch,
	// ignoring the cache — the pre-optimization semantics.
	bruteForce := func(peer schema.Peer, from int) []Notification {
		c.mu.Lock()
		defer c.mu.Unlock()
		var out []Notification
		for idx := 0; idx < c.observable; idx++ {
			if idx >= from && c.run.VisibleAt(idx, peer) {
				out = append(out, c.buildNotification(peer, idx))
			}
		}
		return out
	}

	check := func() {
		for _, peer := range prog.Peers() {
			for from := 0; from <= c.Len()+1; from++ {
				got, err := c.Transitions(peer, from)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteForce(peer, from)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("peer %s from %d:\n got: %+v\nwant: %+v", peer, from, got, want)
				}
			}
		}
	}

	check() // empty run
	for i, s := range subs {
		if _, err := c.Submit(s.peer, s.rule, s.bindings); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		// Poll after every event so the cache is repeatedly extended by one.
		check()
	}
}

// TestCrashDuringGroupCommit is the property test for the batched failure
// path: when the group fsync fails mid-batch, (a) every submitter whose
// record was in flight gets an error, (b) recovery replays exactly the
// durable prefix, and (c) no subscriber ever saw a rolled-back event.
func TestCrashDuringGroupCommit(t *testing.T) {
	prog := workload.Hiring()
	fp := wal.NewFailpoints()
	dir := t.TempDir()
	c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir, Sync: wal.SyncAlways, Failpoints: fp})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancelSub, err := c.Subscribe("hr", 256)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelSub()

	const durablePrefix = 3
	for i := 0; i < durablePrefix; i++ {
		if _, err := c.Submit("hr", "clear", nil); err != nil {
			t.Fatal(err)
		}
	}

	// Slow the next fsync down so every concurrent submitter lands in the
	// same doomed window, then fail it.
	boom := errors.New("EIO mid-batch")
	fp.SlowSync(150 * time.Millisecond)
	fp.FailNextSync(boom)
	const k = 6
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Submit("hr", "clear", nil)
		}(i)
	}
	wg.Wait()
	fp.Reset()

	// (a) Every submitter in the doomed window errored.
	for i, err := range errs {
		if err == nil {
			t.Fatalf("submitter %d resolved durable through the failed group sync", i)
		}
	}
	if got := c.Len(); got != durablePrefix {
		t.Fatalf("Len() = %d after failed batch, want %d", got, durablePrefix)
	}
	// The stall was realigned by the failed submitters; the pipeline works
	// again without outside intervention.
	if err := c.Ready(); err != nil {
		t.Fatalf("coordinator not ready after realign: %v", err)
	}
	if _, err := c.Submit("hr", "clear", nil); err != nil {
		t.Fatalf("submit after realign: %v", err)
	}

	// (c) Notifications cover exactly the released events, in index order —
	// none for a rolled-back event.
	want := 0
	for len(ch) > 0 {
		n := <-ch
		if n.Index != want {
			t.Fatalf("notification index %d, want %d", n.Index, want)
		}
		want++
	}
	if want != durablePrefix+1 {
		t.Fatalf("got %d notifications, want %d", want, durablePrefix+1)
	}

	// (b) Crash (no Close) and recover: exactly the durable prefix replays.
	state := captureState(t, c)
	rc, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if got := rc.Len(); got != durablePrefix+1 {
		t.Fatalf("recovered %d events, want %d", got, durablePrefix+1)
	}
	if got := captureState(t, rc); got != state {
		t.Fatalf("recovered state diverged:\n got: %s\nwant: %s", got, state)
	}
}

// TestConcurrentSubmitsReleaseInOrder stresses the pipeline: many
// concurrent durable submitters, every commit grouped, and still a single
// totally-ordered run with contiguous in-order notifications.
func TestConcurrentSubmitsReleaseInOrder(t *testing.T) {
	prog := workload.Hiring()
	dir := t.TempDir()
	c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir, Sync: wal.SyncAlways, SnapshotEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 5
	ch, cancelSub, err := c.Subscribe("hr", workers*per+8)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelSub()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := c.Submit("hr", "clear", nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := c.Len(); got != workers*per {
		t.Fatalf("Len() = %d, want %d", got, workers*per)
	}
	next := 0
	for len(ch) > 0 {
		n := <-ch
		if n.Index != next {
			t.Fatalf("notification index %d, want %d (in-order contiguous release)", n.Index, next)
		}
		next++
	}
	if next != workers*per {
		t.Fatalf("received %d notifications, want %d", next, workers*per)
	}
	state := captureState(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	rc, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if got := captureState(t, rc); got != state {
		t.Fatalf("recovered state diverged:\n got: %s\nwant: %s", got, state)
	}
}

// TestAdmissionShedsOverLimit drives the admission middleware directly: with
// the single slot held, the next request is shed with 429 + Retry-After and
// counted on wf_admission_shed_total.
func TestAdmissionShedsOverLimit(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewRunMetrics(reg, DefaultRun)
	enter := make(chan struct{})
	release := make(chan struct{})
	h := Admission(m, 1, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enter <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	}))

	firstDone := make(chan *httptest.ResponseRecorder)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/submit", nil))
		firstDone <- rec
	}()
	<-enter // the slot is now held

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/submit", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if got := gaugeValue(t, reg, "wf_admission_shed_total"); got != 1 {
		t.Fatalf("wf_admission_shed_total = %v, want 1", got)
	}

	close(release)
	if rec := <-firstDone; rec.Code != http.StatusOK {
		t.Fatalf("first request status = %d, want 200", rec.Code)
	}
	// Slot free again: the next request passes (the handler no longer blocks
	// once release is closed).
	rec = httptest.NewRecorder()
	done := make(chan struct{})
	go func() { <-enter; close(done) }()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/submit", nil))
	<-done
	if rec.Code != http.StatusOK {
		t.Fatalf("post-release request status = %d, want 200", rec.Code)
	}
}

// TestAdmissionUnlimitedPassesThrough: limit ≤ 0 must leave the handler
// untouched.
func TestAdmissionUnlimitedPassesThrough(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	rec := httptest.NewRecorder()
	Admission(nil, 0, nil, inner).ServeHTTP(rec, httptest.NewRequest("POST", "/submit", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
}

// readerLog records what one concurrent reader observed, for the
// prefix-consistency assertions: once an index has been observed with some
// (rule, view) content, every later observation of that index must be
// identical — a rolled-back event surfacing at a reused index would differ.
type readerLog struct {
	seen    map[int]Notification
	maxLen  int
	violate string
}

func (rl *readerLog) observe(ts []Notification, n int) {
	if rl.seen == nil {
		rl.seen = make(map[int]Notification)
	}
	if n < rl.maxLen && rl.violate == "" {
		rl.violate = fmt.Sprintf("len went backwards: %d after %d", n, rl.maxLen)
	}
	if n > rl.maxLen {
		rl.maxLen = n
	}
	for _, t := range ts {
		if prev, ok := rl.seen[t.Index]; ok {
			if !reflect.DeepEqual(prev, t) && rl.violate == "" {
				rl.violate = fmt.Sprintf("index %d changed under the reader:\n was: %+v\n now: %+v", t.Index, prev, t)
			}
			continue
		}
		rl.seen[t.Index] = t
	}
}

// TestConcurrentReadersDuringGroupCommits is the -race stress test of the
// lock-free read path: reader goroutines hammer View/Explain/Transitions/
// Len while writers stream durable group-committed submissions. Asserts
// monotonic, prefix-consistent reads; the race detector asserts the memory
// model.
func TestConcurrentReadersDuringGroupCommits(t *testing.T) {
	prog := workload.Hiring()
	c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: t.TempDir(), Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const writers, perWriter, readers = 4, 25, 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	logs := make([]readerLog, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(rl *readerLog) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ts, n, err := c.TransitionsAndLen("hr", 0)
				if err != nil {
					t.Error(err)
					return
				}
				rl.observe(ts, n)
				if _, err := c.View("hr"); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Explain("hr"); err != nil {
					t.Error(err)
					return
				}
			}
		}(&logs[r])
	}
	var werr error
	var werrMu sync.Mutex
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := c.Submit("hr", "clear", nil); err != nil {
					werrMu.Lock()
					werr = err
					werrMu.Unlock()
					return
				}
			}
		}()
	}
	wwg.Wait()
	close(stop)
	wg.Wait()
	if werr != nil {
		t.Fatal(werr)
	}
	if got := c.Len(); got != writers*perWriter {
		t.Fatalf("Len() = %d, want %d", got, writers*perWriter)
	}
	// Every reader's record must agree with the final state.
	final, _, err := c.TransitionsAndLen("hr", 0)
	if err != nil {
		t.Fatal(err)
	}
	byIndex := make(map[int]Notification, len(final))
	for _, n := range final {
		byIndex[n.Index] = n
	}
	for r := range logs {
		if logs[r].violate != "" {
			t.Fatalf("reader %d: %s", r, logs[r].violate)
		}
		for idx, seen := range logs[r].seen {
			want, ok := byIndex[idx]
			if !ok {
				t.Fatalf("reader %d saw index %d missing from the final state", r, idx)
			}
			// Views are immutable per index. Because lists may have grown
			// since the reader sampled (closures absorb later lifecycle
			// closes), so assert the subset direction only.
			if seen.View != want.View || seen.Rule != want.Rule || seen.Omega != want.Omega {
				t.Fatalf("reader %d, index %d diverged from final state:\n seen: %+v\n want: %+v", r, idx, seen, want)
			}
		}
	}
}

// TestRollbackDuringReadsInvisible extends the crash-during-group-commit
// property with concurrent readers: while a doomed batch is in flight (slow
// fsync, then EIO), readers poll continuously — and must never observe any
// of the rolled-back events, even though their indices are later reused by
// new accepted submissions with different payloads.
func TestRollbackDuringReadsInvisible(t *testing.T) {
	prog := workload.Hiring()
	fp := wal.NewFailpoints()
	c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: t.TempDir(), Sync: wal.SyncAlways, Failpoints: fp})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const durablePrefix = 3
	for i := 0; i < durablePrefix; i++ {
		if _, err := c.Submit("hr", "clear", nil); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	const readers = 3
	logs := make([]readerLog, readers)
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(rl *readerLog) {
			defer rwg.Done()
			for {
				ts, n, err := c.TransitionsAndLen("hr", 0)
				if err != nil {
					t.Error(err)
					return
				}
				rl.observe(ts, n)
				select {
				case <-stop:
					return
				default:
				}
			}
		}(&logs[r])
	}

	// Doom the next batch: every submitter in the slow-sync window fails and
	// rolls back. Readers are polling throughout.
	boom := errors.New("EIO mid-batch")
	fp.SlowSync(100 * time.Millisecond)
	fp.FailNextSync(boom)
	const doomed = 5
	var swg sync.WaitGroup
	for i := 0; i < doomed; i++ {
		swg.Add(1)
		go func() {
			defer swg.Done()
			if _, err := c.Submit("hr", "clear", nil); err == nil {
				t.Error("doomed submission resolved durable")
			}
		}()
	}
	swg.Wait()
	fp.Reset()
	if got := c.Len(); got != durablePrefix {
		t.Fatalf("Len() = %d after failed batch, want %d", got, durablePrefix)
	}
	// Reuse the rolled-back indices with fresh, successful submissions.
	for i := 0; i < doomed; i++ {
		if _, err := c.Submit("hr", "clear", nil); err != nil {
			t.Fatalf("submit after realign: %v", err)
		}
	}
	close(stop)
	rwg.Wait()

	final, n, err := c.TransitionsAndLen("hr", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != durablePrefix+doomed {
		t.Fatalf("final len %d, want %d", n, durablePrefix+doomed)
	}
	byIndex := make(map[int]Notification, len(final))
	for _, fn := range final {
		byIndex[fn.Index] = fn
	}
	for r := range logs {
		if logs[r].violate != "" {
			t.Fatalf("reader %d: %s", r, logs[r].violate)
		}
		for idx, seen := range logs[r].seen {
			want, ok := byIndex[idx]
			if !ok || seen.View != want.View || seen.Rule != want.Rule || seen.Omega != want.Omega {
				t.Fatalf("reader %d observed a rolled-back event at index %d:\n seen: %+v\n final: %+v (present %v)",
					r, idx, seen, want, ok)
			}
		}
	}
}
