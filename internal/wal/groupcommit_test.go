package wal

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"collabwf/internal/obs"
)

// TestGroupCommitCoalescesBatches pins the tentpole behavior: records
// buffered while an fsync is in flight commit together under ONE later
// fsync, and every submitter still observes durability before its commit
// resolves.
func TestGroupCommitCoalescesBatches(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	fp := NewFailpoints()
	// Slow every fsync down so the records appended during the first sync
	// pile up deterministically into one batch.
	fp.SlowSync(30 * time.Millisecond)
	l, err := Open(dir, Header{}, Options{Sync: SyncAlways, Failpoints: fp, Metrics: reg}, nil)
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	commits := make([]*Commit, n)
	for i := 0; i < n; i++ {
		cm, err := l.AppendBuffered(t.Context(), rec(i))
		if err != nil {
			t.Fatal(err)
		}
		commits[i] = cm
	}
	maxBatch := 0
	for i, cm := range commits {
		if err := cm.Wait(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if cm.BatchSize() > maxBatch {
			maxBatch = cm.BatchSize()
		}
	}
	if maxBatch < 2 {
		t.Fatalf("no coalescing: max batch = %d, want >= 2", maxBatch)
	}
	if got := l.Accepted(); got != n {
		t.Fatalf("Accepted() = %d, want %d", got, n)
	}
	if got, _ := counterValue(reg, "wf_wal_records_appended_total"); got != n {
		t.Fatalf("wf_wal_records_appended_total = %v, want %d", got, n)
	}
	// Fewer fsync batches than records is the whole point.
	if got, _ := counterValue(reg, "wf_wal_group_commit_batch_size"); got <= 0 || got >= n {
		t.Fatalf("wf_wal_group_commit_batch_size count = %v, want in (0, %d)", got, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(mustTail(t, dir)); got != n {
		t.Fatalf("recovered %d records, want %d", got, n)
	}
}

// TestHoldSyncBlocksUntilReleased: a held sync keeps its commit pending,
// with no clock involved, until the hold is released; later syncs are not
// held.
func TestHoldSyncBlocksUntilReleased(t *testing.T) {
	fp := NewFailpoints()
	l, err := Open(t.TempDir(), Header{}, Options{Sync: SyncAlways, Failpoints: fp}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	release := fp.HoldSync()
	cm, err := l.AppendBuffered(t.Context(), rec(0))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); fp.HeldSyncs() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the sync never reached the hold")
		}
	}
	select {
	case <-cm.Done():
		t.Fatal("a commit resolved while its sync was held")
	default:
	}
	release()
	release()
	if err := cm.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := fp.HeldSyncs(); got != 0 {
		t.Fatalf("HeldSyncs() = %d after release", got)
	}
	if err := appendDurable(l, rec(1)); err != nil {
		t.Fatal(err)
	}
}

// TestGroupSyncFailureFailsBatchAndStalls pins the failure contract: when
// the batch fsync fails, every queued submitter gets the error, the durable
// prefix on disk is untouched, and the log refuses appends until Resume.
func TestGroupSyncFailureFailsBatchAndStalls(t *testing.T) {
	dir := t.TempDir()
	fp := NewFailpoints()
	l, err := Open(dir, Header{}, Options{Sync: SyncAlways, Failpoints: fp}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Establish a durable prefix of one record.
	cm, err := l.AppendBuffered(t.Context(), rec(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.Wait(); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("EIO")
	fp.SlowSync(30 * time.Millisecond)
	fp.FailNextSync(boom)
	const n = 4
	var failed int
	commits := make([]*Commit, 0, n)
	for i := 0; i < n; i++ {
		cm, err := l.AppendBuffered(t.Context(), rec(1+i))
		if err != nil {
			// Appended after the stall hit: refused at the write, which is
			// just as dead as a failed commit.
			failed++
			continue
		}
		commits = append(commits, cm)
	}
	for _, cm := range commits {
		if err := cm.Wait(); err == nil {
			t.Fatalf("commit %d resolved durable through a failed group sync", cm.seq)
		} else if !errors.Is(err, boom) {
			t.Fatalf("commit %d error = %v, want %v", cm.seq, err, boom)
		}
		failed++
	}
	if failed != n {
		t.Fatalf("%d of %d submissions failed, want all", failed, n)
	}
	if l.Stalled() == nil {
		t.Fatal("log not stalled after failed group sync")
	}
	if got := l.Accepted(); got != 1 {
		t.Fatalf("Accepted() = %d, want 1 (the pre-failure prefix)", got)
	}
	if _, err := l.AppendBuffered(t.Context(), rec(1)); err == nil {
		t.Fatal("stalled log accepted an append")
	} else if !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("err = %v, want a stall error", err)
	}

	// Realign and resume: the next append continues from the durable prefix.
	fp.Reset()
	l.Resume()
	cm, err = l.AppendBuffered(t.Context(), rec(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	tail := mustTail(t, dir)
	if len(tail) != 2 || tail[0].Seq != 0 || tail[1].Seq != 1 {
		t.Fatalf("recovered tail = %+v, want seqs [0 1]", tail)
	}
}

// TestFlushDrainsPending verifies Flush blocks until every buffered commit
// resolved and Pending reports the queue depth in between.
func TestFlushDrainsPending(t *testing.T) {
	dir := t.TempDir()
	fp := NewFailpoints()
	fp.SlowSync(20 * time.Millisecond)
	l, err := Open(dir, Header{}, Options{Sync: SyncAlways, Failpoints: fp}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		cm, err := l.AppendBuffered(t.Context(), rec(i))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = cm.Wait()
		}()
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := l.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after Flush, want 0", got)
	}
	if got := l.Accepted(); got != 5 {
		t.Fatalf("Accepted() = %d after Flush, want 5", got)
	}
	wg.Wait()
}

// TestIdleFlushTimerSyncsIdleTail pins that under SyncInterval an idle
// dirty tail becomes durable on its own: the committer's timer fsyncs it
// with no further appends and no Close.
//
// A real crash cannot be simulated in-process (a reopen reads the page
// cache, synced or not), so the test pins the mechanism: the timer-driven
// fsync fires (wf_wal_fsync_total) and leaves the tail clean, and the
// records survive a close whose own final sync is made to fail —
// durability came from the timer, not from Close.
func TestIdleFlushTimerSyncsIdleTail(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	fp := NewFailpoints()
	l, err := Open(dir, Header{}, Options{Sync: SyncInterval, Failpoints: fp, Metrics: reg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendDurable(l, rec(0)); err != nil {
		t.Fatal(err)
	}
	if err := appendDurable(l, rec(1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		synced, _ := counterValue(reg, "wf_wal_fsync_total")
		l.mu.Lock()
		clean := l.end == l.durable
		l.mu.Unlock()
		if synced >= 1 && clean {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the committer's timer never fsynced the idle dirty tail")
		}
		time.Sleep(syncInterval / 4)
	}
	// "Crash": the final sync in Close fails, so if the tail were still only
	// page-cache-buffered nothing would have made it durable.
	fp.FailNextSync(errors.New("power cut"))
	if err := l.Close(); err == nil {
		t.Fatal("Close swallowed the injected sync failure")
	}
	tail := mustTail(t, dir)
	if len(tail) != 2 {
		t.Fatalf("recovered %d records, want 2", len(tail))
	}
}

// TestIntervalAppendNeverWaitsOnFsync pins that SyncInterval keeps fsync
// off the append path: even when every fsync takes a second, an append
// returns an already-resolved commit immediately, and the slow sync happens
// later on the committer.
func TestIntervalAppendNeverWaitsOnFsync(t *testing.T) {
	dir := t.TempDir()
	fp := NewFailpoints()
	const delay = time.Second
	fp.SlowSync(delay)
	l, err := Open(dir, Header{}, Options{Sync: SyncInterval, Failpoints: fp}, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	cm, err := l.AppendBuffered(t.Context(), rec(0))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-cm.Done():
	default:
		t.Fatal("interval append returned an unresolved commit")
	}
	if err := cm.Err(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if elapsed >= delay/4 {
		t.Fatalf("append took %v with a %v fsync: it waited on the disk", elapsed, delay)
	}
	fp.Reset()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(mustTail(t, dir)); got != 1 {
		t.Fatalf("recovered %d records, want 1", got)
	}
}

// TestIntervalSyncFailureIsRetried pins that a failed interval fsync is not
// fatal: it is counted, the acknowledged record stays in the log, the log
// keeps accepting appends, and the next tick makes the tail durable.
func TestIntervalSyncFailureIsRetried(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	fp := NewFailpoints()
	fp.FailNextSync(errors.New("EIO"))
	l, err := Open(dir, Header{}, Options{Sync: SyncInterval, Failpoints: fp, Metrics: reg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendDurable(l, rec(0)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		failed, _ := counterValue(reg, "wf_wal_fsync_errors_total")
		l.mu.Lock()
		clean := l.end == l.durable
		l.mu.Unlock()
		if failed >= 1 && clean {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the failed interval fsync was never retried")
		}
		time.Sleep(syncInterval / 4)
	}
	if err := l.Healthy(); err != nil {
		t.Fatalf("a failed interval fsync broke the log: %v", err)
	}
	if got := l.Accepted(); got != 1 {
		t.Fatalf("Accepted() = %d, want 1", got)
	}
	if err := appendDurable(l, rec(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(mustTail(t, dir)); got != 2 {
		t.Fatalf("recovered %d records, want 2", got)
	}
}

// TestCloseIsIdempotent guards the double-close path: the background
// goroutines and the file must be torn down exactly once.
func TestCloseIsIdempotent(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		l, err := Open(t.TempDir(), Header{}, Options{Sync: p}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("%s: first close: %v", p, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("%s: second close: %v", p, err)
		}
	}
}
