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
	"collabwf/internal/program"
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
		Dir: t.TempDir(), Sync: wal.SyncAlways, Failpoints: fp, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit("hr", "clear", nil); err != nil {
		t.Fatal(err)
	}
	// /statusz is only mounted when metrics are wired, as in wfserve.
	ts := httptest.NewServer(NewHandler(c, HTTPOptions{}))
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

// TestRecoverByteFlipMatrix flips every byte of the wal.log and
// snapshot.json of two data dirs, one byte at a time, and recovers: the
// legacy fixture (a 2-event snapshot, then a log holding a record the
// snapshot covers and a tail record) and a guarded dir written by this code
// (the log plus the length-0 guard file). The default policy must either
// refuse cleanly or come back with a prefix of the original run no shorter
// than the snapshot's; strict mode must never invent state, and no
// recovery may lose the guard. Nothing may panic.
func TestRecoverByteFlipMatrix(t *testing.T) {
	prog := workload.Hiring()
	guarded := t.TempDir()
	c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: guarded, Guards: map[string]int{"sue": 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Submit("hr", "clear", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []struct {
		name, dir string
		// floor is the snapshot's length, full the whole run's.
		floor, full int
	}{
		{"legacy", "testdata/legacy-snapshot", 2, 3},
		{"guarded", guarded, 0, 3},
	} {
		t.Run(seed.name, func(t *testing.T) {
			flipMatrix(t, prog, seed.dir, seed.floor, seed.full)
		})
	}
}

func flipMatrix(t *testing.T, prog *program.Program, seedDir string, floor, full int) {
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
		rc, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir, Strict: strict})
		if err != nil {
			return 0, err
		}
		defer rc.Close()
		if g := rc.Guards(); len(g) != 1 || g["sue"] != 3 {
			t.Fatalf("%s: recovered guards %v, want sue=3", name, g)
		}
		return rc.Len(), nil
	}

	// Sanity: the pristine pair recovers the full run.
	if n, err := tryRecover("pristine", logBytes, snapBytes, false); err != nil || n != full {
		t.Fatalf("pristine recovery: len=%d err=%v, want %d,nil", n, err, full)
	}

	for i := range logBytes {
		mut := append([]byte(nil), logBytes...)
		mut[i] ^= 0xFF
		for _, strict := range []bool{false, true} {
			n, err := tryRecover(fmt.Sprintf("log-%d-%v", i, strict), mut, snapBytes, strict)
			if err != nil {
				continue // clean refusal is always acceptable
			}
			if n < floor || n > full {
				t.Fatalf("log byte %d (strict=%v): recovered %d events, want in [%d, %d]",
					i, strict, n, floor, full)
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
			if n != full {
				t.Fatalf("snap byte %d (strict=%v): accepted a corrupt snapshot, recovered %d events", i, strict, n)
			}
		}
	}
}
