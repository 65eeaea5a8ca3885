package server

import (
	"os"
	"path/filepath"
	"testing"

	"collabwf/internal/wal"
	"collabwf/internal/workload"
)

// FuzzRecover feeds arbitrary bytes to the recovery path as a wal.log and
// asserts the only allowed outcomes: a clean refusal or a coordinator whose
// run replays entirely through the workflow's own rule conditions. It must
// never panic and never recover more state than the bytes can justify.
//
// CI runs a short -fuzz smoke; the corpus seeds cover a pristine log, a
// legacy (unchecksummed) record, a torn tail, and structured garbage. Pass
// -fuzzminimizetime=5s alongside -fuzz: recovery spawns goroutines and
// fsyncs, so its coverage is timing-noisy, and the default one-minute
// minimization budget per interesting input stalls the whole run.
func FuzzRecover(f *testing.F) {
	prog := workload.Hiring()

	// Seed with a genuine log produced by a durable coordinator.
	seedDir := f.TempDir()
	c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: seedDir})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Submit("hr", "clear", nil); err != nil {
			f.Fatal(err)
		}
	}
	if _, _, err := c.Crash(); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(filepath.Join(seedDir, "wal.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add([]byte(`{"seq":0,"event":{"rule":"clear","valuation":{"x":"p0"}}}` + "\n"))
	f.Add([]byte(`{"seq":7,"event":{"rule":"nope"},"crc":123}` + "\n"))
	f.Add([]byte("\x00\xff{not json\n\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// SyncNever and Crash (not Close) keep each exec free of fsyncs: the
		// fuzzer needs cheap, deterministic execs or its corpus minimization
		// crawls.
		for _, strict := range []bool{false, true} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "wal.log"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			cfg := DurabilityConfig{Dir: dir, Sync: wal.SyncNever, Strict: strict}
			rc, err := NewDurable("Hiring", prog, cfg)
			if err != nil {
				continue // refusing garbage is correct
			}
			// Whatever was accepted replayed through the run conditions; it
			// must also be re-recoverable from what is now on disk.
			n := rc.Len()
			if _, _, err := rc.Crash(); err != nil {
				t.Fatalf("crash after recovery: %v", err)
			}
			rc2, err := NewDurable("Hiring", prog, cfg)
			if err != nil {
				t.Fatalf("accepted log did not re-recover (strict=%v): %v", strict, err)
			}
			if rc2.Len() != n {
				t.Fatalf("re-recovery produced %d events, first produced %d (strict=%v)", rc2.Len(), n, strict)
			}
			rc2.Crash()
		}
	})
}
