package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"collabwf/internal/obs"
	"collabwf/internal/wal"
	"collabwf/internal/workload"
)

// TestStalledWALSurfacedInHealth is the regression test for silent stalls:
// while the WAL refuses appends after a failed group sync, /readyz must
// answer 503 and /statusz must carry the stall error, and both must clear
// once the operator realigns and resumes.
func TestStalledWALSurfacedInHealth(t *testing.T) {
	fp := wal.NewFailpoints()
	c, err := NewDurable("Hiring", workload.Hiring(), DurabilityConfig{
		Dir: t.TempDir(), Sync: wal.SyncAlways, Failpoints: fp,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit("hr", "clear", nil); err != nil {
		t.Fatal(err)
	}
	// /statusz is only mounted when metrics are wired, as in wfserve.
	ts := httptest.NewServer(NewHandler(c, HTTPOptions{Metrics: NewRunMetrics(obs.NewRegistry(), DefaultRun)}))
	defer ts.Close()

	getStatusz := func() Statusz {
		t.Helper()
		resp, err := http.Get(ts.URL + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var s Statusz
		if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	readyz := func() int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := readyz(); got != http.StatusOK {
		t.Fatalf("/readyz = %d on a healthy coordinator", got)
	}
	if s := getStatusz(); s.WALStalled != "" {
		t.Fatalf("wal_stalled = %q on a healthy coordinator", s.WALStalled)
	}

	// Stall the WAL underneath the coordinator: a failed group sync on an
	// append issued outside the submit path (so nothing auto-realigns).
	fp.FailNextSync(fmt.Errorf("EIO: disk on fire"))
	cm, err := c.log.AppendBuffered(context.Background(), wal.Record{Seq: c.Len()})
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.Wait(); err == nil {
		t.Fatal("commit resolved durable through a failed group sync")
	}
	fp.Reset()

	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d while the WAL is stalled, want 503", got)
	}
	s := getStatusz()
	if s.WALStalled == "" {
		t.Fatal("statusz does not carry wal_stalled during a stall")
	}

	// Operator realign: the run already matches the durable prefix (the
	// doomed append never touched it), so Resume alone recovers.
	if got, want := c.log.Accepted(), c.Len(); got != want {
		t.Fatalf("Accepted() = %d, run length = %d — realign would lose events", got, want)
	}
	c.log.Resume()
	if got := readyz(); got != http.StatusOK {
		t.Fatalf("/readyz = %d after realign+Resume, want 200", got)
	}
	if s := getStatusz(); s.WALStalled != "" {
		t.Fatalf("wal_stalled = %q after realign+Resume", s.WALStalled)
	}
	if _, err := c.Submit("hr", "clear", nil); err != nil {
		t.Fatalf("submit after realign: %v", err)
	}
}

// TestSnapshotBusyDeferredAndRetried: a threshold snapshot that lands while
// commits are in flight is deferred (wal.ErrBusy, counted on
// wf_wal_snapshot_deferred_total), not failed — and the armed retry writes
// it as soon as the queue drains, without waiting for the next threshold.
func TestSnapshotBusyDeferredAndRetried(t *testing.T) {
	reg := obs.NewRegistry()
	fp := wal.NewFailpoints()
	c, err := NewDurable("Hiring", workload.Hiring(), DurabilityConfig{
		Dir: t.TempDir(), Sync: wal.SyncAlways, SnapshotEvery: 1,
		Failpoints: fp, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit("hr", "clear", nil); err != nil {
		t.Fatal(err)
	}
	snapsBefore, _ := counterVal(reg, "wf_wal_snapshots_total")

	// Hold a commit in flight (slow fsync, issued outside the submit path so
	// no submit-side snapshot races the retry timer), then cross the
	// threshold: the snapshot must defer, not fail.
	fp.SlowSync(100 * time.Millisecond)
	cm, err := c.log.AppendBuffered(context.Background(), wal.Record{Seq: c.Len()})
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.sinceSnapshot = c.snapshotEvery
	c.maybeSnapshotLocked(context.Background())
	armed := c.snapRetryArmed
	snapErr := c.lastSnapErr
	c.mu.Unlock()
	if !armed {
		t.Fatal("busy snapshot did not arm the deferred retry")
	}
	if snapErr != nil {
		t.Fatalf("busy snapshot recorded as a failure: %v", snapErr)
	}
	if got, ok := counterVal(reg, "wf_wal_snapshot_deferred_total"); !ok || got < 1 {
		t.Fatalf("wf_wal_snapshot_deferred_total = %v (ok=%v), want >= 1", got, ok)
	}

	if err := cm.Wait(); err != nil {
		t.Fatal(err)
	}
	fp.Reset()
	// The queue has drained; the retry timer must land the snapshot on its
	// own — nothing else crosses the threshold again.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got, _ := counterVal(reg, "wf_wal_snapshots_total"); got > snapsBefore {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deferred snapshot never retried after the queue drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.mu.Lock()
	since := c.sinceSnapshot
	c.mu.Unlock()
	if since != 0 {
		t.Fatalf("sinceSnapshot = %d after the deferred snapshot landed, want 0", since)
	}
}

// counterVal sums a counter family on the registry.
func counterVal(reg *obs.Registry, name string) (float64, bool) {
	for _, fam := range reg.Gather() {
		if fam.Name != name {
			continue
		}
		total := 0.0
		for _, s := range fam.Series {
			total += s.Value
		}
		return total, true
	}
	return 0, false
}

// TestRetryAfterHintScalesWithBacklog: the 429/503 Retry-After hint derives
// from observed fsync latency — an in-memory or idle coordinator says 1s, a
// coordinator whose fsyncs take over a second says more.
func TestRetryAfterHintScalesWithBacklog(t *testing.T) {
	if got := New("Hiring", workload.Hiring()).RetryAfterHint(); got != 1 {
		t.Fatalf("in-memory hint = %d, want 1", got)
	}

	fp := wal.NewFailpoints()
	c, err := NewDurable("Hiring", workload.Hiring(), DurabilityConfig{
		Dir: t.TempDir(), Sync: wal.SyncAlways, Failpoints: fp,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.RetryAfterHint(); got != 1 {
		t.Fatalf("idle durable hint = %d, want 1", got)
	}
	// One fsync at ~1.2s seeds the latency average above a second.
	fp.SlowSync(1200 * time.Millisecond)
	if _, err := c.Submit("hr", "clear", nil); err != nil {
		t.Fatal(err)
	}
	fp.Reset()
	if got := c.RetryAfterHint(); got < 2 || got > 30 {
		t.Fatalf("hint after 1.2s fsync = %d, want in [2, 30]", got)
	}
}

// TestRecoverByteFlipMatrix flips every byte of a real wal.log and
// snapshot.json (one at a time) and recovers: the default policy must
// either refuse cleanly or come back with a sane prefix of the original
// run; strict mode must never invent state. Nothing may panic.
func TestRecoverByteFlipMatrix(t *testing.T) {
	prog := workload.Hiring()
	seedDir := t.TempDir()
	c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: seedDir, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	const origLen = 3
	for i := 0; i < origLen; i++ {
		if _, err := c.Submit("hr", "clear", nil); err != nil {
			t.Fatal(err)
		}
	}
	// Crash, not Close: Close would fold the tail into a final snapshot and
	// leave no log bytes to corrupt.
	if _, _, err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	logBytes, err := os.ReadFile(filepath.Join(seedDir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	snapBytes, err := os.ReadFile(filepath.Join(seedDir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(logBytes) == 0 {
		t.Fatal("seed log is empty — the matrix would test nothing")
	}
	const snapLen = 2 // SnapshotEvery: 2 of the 3 events are in the snapshot

	root := t.TempDir()
	tryRecover := func(name string, log, snap []byte, strict bool) (int, error) {
		dir := filepath.Join(root, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), log, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		rc, err := Recover("Hiring", prog, DurabilityConfig{Dir: dir, Strict: strict})
		if err != nil {
			return 0, err
		}
		n := rc.Len()
		rc.Close()
		return n, nil
	}

	// Sanity: the pristine pair recovers the full run.
	if n, err := tryRecover("pristine", logBytes, snapBytes, false); err != nil || n != origLen {
		t.Fatalf("pristine recovery: len=%d err=%v, want %d,nil", n, err, origLen)
	}

	for i := range logBytes {
		mut := append([]byte(nil), logBytes...)
		mut[i] ^= 0xFF
		for _, strict := range []bool{false, true} {
			n, err := tryRecover(fmt.Sprintf("log-%d-%v", i, strict), mut, snapBytes, strict)
			if err != nil {
				continue // clean refusal is always acceptable
			}
			if n < snapLen || n > origLen {
				t.Fatalf("log byte %d (strict=%v): recovered %d events, want in [%d, %d]",
					i, strict, n, snapLen, origLen)
			}
		}
	}
	for i := range snapBytes {
		mut := append([]byte(nil), snapBytes...)
		mut[i] ^= 0xFF
		for _, strict := range []bool{false, true} {
			n, err := tryRecover(fmt.Sprintf("snap-%d-%v", i, strict), logBytes, mut, strict)
			if err != nil {
				continue // a corrupt snapshot is fatal under both policies
			}
			// Accepting a flipped snapshot is only tolerable if the flip was
			// immaterial (it was not — the CRC covers the whole decoded
			// value), so a success must reproduce the exact original run.
			if n != origLen {
				t.Fatalf("snap byte %d (strict=%v): accepted a corrupt snapshot, recovered %d events", i, strict, n)
			}
		}
	}
}
