package server

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/wal"
)

// crowdSubmission is one submission of a crowdsourcing episode.
type crowdSubmission struct {
	peer, rule string
	bind       map[string]data.Value
}

// crowdEpisode is one task of crowdsourcing.wf as the served benchmark
// drives it: posted, claimed and worked on by both workers, and a seeded
// winner accepted and paid.
func crowdEpisode(rnd *rand.Rand, t string) []crowdSubmission {
	w := data.Value([]string{"w0", "w1"}[rnd.Intn(2)])
	v := func(s string) data.Value { return data.Value(s + t) }
	tv := data.Value(t)
	return []crowdSubmission{
		{"requester", "post", map[string]data.Value{"t": tv, "d": v("d")}},
		{"w0", "claim0", map[string]data.Value{"t": tv, "c": v("c0")}},
		{"w1", "claim1", map[string]data.Value{"t": tv, "c": v("c1")}},
		{"w0", "submit0", map[string]data.Value{"t": tv, "c": v("c0"), "x": v("x0")}},
		{"w1", "submit1", map[string]data.Value{"t": tv, "c": v("c1"), "x": v("x1")}},
		{"platform", "accept", map[string]data.Value{"t": tv, "w": w}},
		{"platform", "pay", map[string]data.Value{"t": tv, "w": w, "y": v("y")}},
	}
}

// writeCrowdPrefix writes a crowdsourcing run of the given number of
// episodes (7 events each) into dir with a durable coordinator that skips
// fsync. Up to three episodes are open at once and a seeded choice picks
// the next submission among them, so episodes interleave while each stays
// in order.
func writeCrowdPrefix(tb testing.TB, dir string, seed int64, episodes int) {
	tb.Helper()
	c, err := NewDurable("Crowdsourcing", crowdProgram(tb), DurabilityConfig{Dir: dir, Sync: wal.SyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(seed))
	var open [][]crowdSubmission
	started := 0
	for {
		for len(open) < 3 && started < episodes {
			open = append(open, crowdEpisode(rnd, fmt.Sprintf("p.%d", started)))
			started++
		}
		if len(open) == 0 {
			break
		}
		k := rnd.Intn(len(open))
		s := open[k][0]
		if open[k] = open[k][1:]; len(open[k]) == 0 {
			open = append(open[:k], open[k+1:]...)
		}
		if _, err := c.Submit(schema.Peer(s.peer), s.rule, s.bind); err != nil {
			tb.Fatalf("%s %v: %v", s.rule, s.bind, err)
		}
	}
	if err := c.Close(); err != nil {
		tb.Fatal(err)
	}
}

// recoverOnce recovers dir and closes the coordinator again.
func recoverOnce(tb testing.TB, prog *program.Program, dir string, wantLen int) {
	c, err := NewDurable("Crowdsourcing", prog, DurabilityConfig{Dir: dir, Sync: wal.SyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	if c.Len() != wantLen {
		tb.Fatalf("recovered %d events, want %d", c.Len(), wantLen)
	}
	if err := c.Close(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkRecover times NewDurable on the 2100-event crowdsourcing prefix
// the crowd-read workload serves (300 episodes): reading and decoding the
// WAL, replaying every event through the run conditions, and building the
// explainer and the first snapshot.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	writeCrowdPrefix(b, dir, 1, 300)
	prog := crowdProgram(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recoverOnce(b, prog, dir, 2100)
	}
}

// TestRecoverAllocsPerEvent pins recovery's allocations on a fixed
// 140-event crowdsourcing prefix (20 episodes): NewDurable and Close, with
// the program parsed beforehand. Decoding each WAL line once into the
// valuation its event adopts, writing one instance copy per event, and
// sizing the step list, the effects and the explainer's tables up front
// brought it from 6302 allocations (45.0 per event) to 2777 (19.8).
// Replaying into one in-place instance that keeps a version every 32
// steps, and sizing each peer's scenario and visible-event lists up front,
// brought it to 1893 (13.5). Storing each event as its rule and one slot
// array, decoded into two arenas, and padding each insert once from the
// slots brought it to 1030 (7.4), and the bytes allocated per recovered
// event from 1603 to 1025. Bytes, not counts, decide when the first GC
// cycle starts. Each bound is its measured figure plus 10%.
func TestRecoverAllocsPerEvent(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector adds allocations")
	}
	dir := t.TempDir()
	writeCrowdPrefix(t, dir, 1, 20)
	prog := crowdProgram(t)
	allocs := testing.AllocsPerRun(20, func() { recoverOnce(t, prog, dir, 140) })
	const bound = 1030 * 11 / 10
	if allocs > bound {
		t.Fatalf("recovering 140 events took %.0f allocations (%.1f per event), bound %d", allocs, allocs/140, bound)
	}
	const runs, bytesBound = 20, 1025 * 11 / 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		recoverOnce(t, prog, dir, 140)
	}
	runtime.ReadMemStats(&after)
	if perEvent := float64(after.TotalAlloc-before.TotalAlloc) / runs / 140; perEvent > bytesBound {
		t.Fatalf("recovering 140 events allocated %.0f bytes per event, bound %d", perEvent, bytesBound)
	}
}
