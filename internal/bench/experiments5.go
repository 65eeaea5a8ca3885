package bench

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"collabwf/internal/server"
	"collabwf/internal/wal"
	"collabwf/internal/workload"
)

// Readers and Writers override E17's client mix (the wfbench -readers and
// -writers flags): Readers > 0 pins the reader sweep to that single count;
// Writers > 0 sets the streaming writer count (default 4).
var (
	Readers int
	Writers int
)

// e17Mixed is one timed mixed read/write run's outcome.
type e17Mixed struct {
	readsPerSec  float64
	writesPerSec float64
	// latSamples holds sampled per-read-op latencies (every 16th op).
	latSamples []time.Duration
}

// E17ReadPath — conclusion: transparency is consumed through reads, so the
// serving path must not collapse when writes stream. Reads serve
// View/Explain/Transitions from an immutable prefix snapshot published at
// release time; this experiment measures absolute read throughput and
// latency under streaming SyncAlways writers, and how much of its
// writes-alone rate the write path retains while readers hammer.
func E17ReadPath(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E17",
		Title:   "snapshot read throughput and latency vs reader count (streaming SyncAlways writers)",
		Claim:   "conclusion: the master server serves views and explanations at scale, concurrently with updates",
		Columns: []string{"readers", "rd/s", "writes ev/s", "rd p50 µs", "rd p99 µs"},
	}
	// The seeded prefix dominates the run length so per-read cost barely
	// depends on how far the writers got; writers drain a fixed budget so
	// every configuration converges on an identical final prefix.
	readerCounts := []int{1, 2, 4, 8}
	window := 400 * time.Millisecond
	seed := 160
	perWriter := 16
	if quick {
		readerCounts = []int{1, 4}
		window = 150 * time.Millisecond
		seed = 96
		perWriter = 8
	}
	if Readers > 0 {
		readerCounts = []int{Readers}
	}
	writers := 4
	if Writers > 0 {
		writers = Writers
	}
	prog := workload.Hiring()
	peers := prog.Peers()

	// runMixed drives `writers` goroutines streaming durable submits and
	// `readers` goroutines hammering View/Transitions/Explain for one time
	// window, on a fresh SyncAlways coordinator seeded with a prefix (so
	// explanations have content).
	runMixed := func(readers int) (*e17Mixed, error) {
		dir, err := os.MkdirTemp("", "wfbench-e17-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		c, err := server.NewDurable("Hiring", prog, server.DurabilityConfig{Dir: dir, Sync: wal.SyncAlways})
		if err != nil {
			return nil, err
		}
		defer c.Close()
		for i := 0; i < seed; i++ {
			if _, err := c.Submit("hr", "clear", nil); err != nil {
				return nil, err
			}
		}
		var stop atomic.Bool
		var read int64
		errs := make(chan error, writers+readers)
		var wg, writersWG sync.WaitGroup
		writeStart := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			writersWG.Add(1)
			go func() {
				defer wg.Done()
				defer writersWG.Done()
				for i := 0; i < perWriter; i++ {
					if _, err := c.Submit("hr", "clear", nil); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		// The write metric is drain rate: how fast the fixed budget lands
		// while readers hammer (or don't, for the writes-alone baseline).
		drainCh := make(chan time.Duration, 1)
		go func() {
			writersWG.Wait()
			drainCh <- time.Since(writeStart)
		}()
		samples := make([][]time.Duration, readers)
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				peer := peers[r%len(peers)]
				var n int64
				last := 0 // tail-poll cursor, as a real listener would keep
				for !stop.Load() {
					begin := time.Now()
					var err error
					switch {
					case n%8 == 7: // the heavy op: full report over the prefix
						_, err = c.Explain(peer)
					case n%2 == 0:
						_, err = c.View(peer)
					default:
						_, last, err = c.Transitions(peer, last)
					}
					if err != nil {
						errs <- err
						return
					}
					if n%16 == 0 {
						samples[r] = append(samples[r], time.Since(begin))
					}
					n++
				}
				atomic.AddInt64(&read, n)
			}(r)
		}
		time.Sleep(window)
		stop.Store(true)
		wg.Wait()
		drain := <-drainCh
		close(errs)
		for err := range errs {
			return nil, err
		}
		if got, want := c.Len(), seed+writers*perWriter; got != want {
			return nil, fmt.Errorf("run has %d events, want %d", got, want)
		}
		out := &e17Mixed{
			readsPerSec:  float64(read) / window.Seconds(),
			writesPerSec: float64(writers*perWriter) / drain.Seconds(),
		}
		for _, s := range samples {
			out.latSamples = append(out.latSamples, s...)
		}
		return out, nil
	}
	// Best-of-2: the suite shares the machine with CI load; take each
	// configuration's best attempt (as E16 does with best-of-3, shortened
	// because E17 runs fixed time windows rather than fixed work).
	run := func(readers int) (*e17Mixed, error) {
		var best *e17Mixed
		for i := 0; i < 2; i++ {
			m, err := runMixed(readers)
			if err != nil {
				return nil, err
			}
			if best == nil || m.readsPerSec > best.readsPerSec ||
				(readers == 0 && m.writesPerSec > best.writesPerSec) {
				best = m
			}
		}
		return best, nil
	}

	// Writes-alone baseline: the retention check compares streaming write
	// throughput with readers hammering against this.
	alone, err := run(0)
	if err != nil {
		return nil, fmt.Errorf("E17 writes-alone: %w", err)
	}

	var maxMixed *e17Mixed
	var maxReaders int
	for _, n := range readerCounts {
		m, err := run(n)
		if err != nil {
			return nil, fmt.Errorf("E17 %d readers: %w", n, err)
		}
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", m.readsPerSec), fmt.Sprintf("%.0f", m.writesPerSec),
			fmt.Sprintf("%.1f", float64(pctDuration(m.latSamples, 0.50).Nanoseconds())/1e3),
			fmt.Sprintf("%.1f", float64(pctDuration(m.latSamples, 0.99).Nanoseconds())/1e3))
		if n >= maxReaders {
			maxReaders, maxMixed = n, m
		}
	}

	// Write retention: readers never touch the coordinator mutex, so draining
	// the write budget should hold its writes-alone (E16-shape) rate. The
	// expectation is ≥ 0.9 given spare cores; the floor leaves room for
	// scheduling when readers outnumber cores (writers are fsync-bound, so
	// they keep landing even when readers own the CPU).
	if maxMixed != nil && alone.writesPerSec > 0 {
		retention := maxMixed.writesPerSec / alone.writesPerSec
		cores := runtime.GOMAXPROCS(0)
		var floor float64
		switch {
		case cores >= writers+maxReaders:
			floor = 0.75
		case cores >= 4:
			floor = 0.5
		case cores > 1:
			floor = 0.2
		default:
			// One core: spinning readers own the CPU between fsync wakeups,
			// so retention measures the scheduler, not the lock. Require
			// progress only.
			floor = 0.02
		}
		t.Notef("write retention with %d readers: %.0f%% of writes-alone (%.0f vs %.0f ev/s)",
			maxReaders, retention*100, maxMixed.writesPerSec, alone.writesPerSec)
		if err := t.gate(quick, "write retention", retention, floor); err != nil {
			return nil, err
		}
	}
	if maxMixed != nil {
		SuiteRead = &ReadStats{
			Readers: maxReaders,
			Ops:     int64(float64(len(maxMixed.latSamples)) * 16),
			P50NS:   pctDuration(maxMixed.latSamples, 0.50).Nanoseconds(),
			P99NS:   pctDuration(maxMixed.latSamples, 0.99).Nanoseconds(),
		}
	}
	t.Notef("reads served from the published snapshot without the coordinator mutex")
	return t, nil
}

// pctDuration returns the q-quantile (0..1) of the samples; 0 when empty.
func pctDuration(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	return s[i]
}
