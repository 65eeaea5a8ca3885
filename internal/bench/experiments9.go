package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"collabwf/internal/core"
	"collabwf/internal/data"
	"collabwf/internal/program"
	"collabwf/internal/workload"
)

// e21HeapPerDoubling is the retained-heap growth allowed per doubling of
// the run: linear cost would give 2×, the quadratic layers it replaced
// gave ~4×.
const e21HeapPerDoubling = 2.2

// A fire's cost at any size may exceed its cost at the first size by at
// most e21FireBytes× in bytes and, in allocations, by the longer tree path
// an Append copies (≤ 1.44 nodes per doubling of a relation, plus the
// rebalancing around it): e21FireAllocs up to 4× the first size, the
// tier-1 gate's bound, and e21FireAllocsPerDoubling per doubling beyond.
const (
	e21FireBytes             = 1.25
	e21FireAllocs            = 4
	e21FireAllocsPerDoubling = 3
)

// E21RunLength — Section 4's promise that a new event costs "a single
// application of T_p plus set unions" (and Def. 3.1's run as a sequence of
// instances), measured as a run-length sweep. One hiring run grows episode
// by episode (clear, cfo_ok, approve, hire on a fresh candidate) with an
// explainer per peer synced after every event. Instances share all but the
// path each write copies, rule bodies are checked through a view filter,
// and explainer unions append only the new events, so the heap a run
// retains grows linearly in its length and the bytes per event stay flat.
// Two more runs grow by client firings whose bindings leave part of the
// body open (crowdsourcing with a served client's bindings, and a revision
// chain naming the latest revision), and measure bytes and allocations per
// Run.FireRule at each size: the seeded, limit-1 body completion keeps them
// flat. At each size an explainer of every peer over the run retains heap
// linear in it, even on the revision chain. Every bound is exact
// arithmetic on allocator statistics, not a clock ratio, so it is asserted
// in every mode; SyncTo's µs per event is reported only.
func E21RunLength(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E21",
		Title:   "run-length sweep: retained heap and cost per event of Run.Append and a 4-peer SyncTo (hiring); cost per Run.FireRule and the explainer's retained heap and SyncTo cost (crowdsourcing, revision chain)",
		Claim:   "§4: each new event costs one T_p application plus set unions — a run's memory is linear in its length",
		Columns: []string{"run", "op", "events", "heap MB", "×prev", "bound", "B/op", "allocs/op", "allocs bound", "SyncTo B/ev", "SyncTo µs/ev"},
	}
	sizes := []int{1000, 2000, 4000, 8000, 10000}
	if quick {
		sizes = []int{1000, 2000, 4000}
	}
	prog := workload.Hiring()
	rules := [4]string{"clear", "cfo_ok", "approve", "hire"}
	prevMB := 0.0
	for k, n := range sizes {
		base := liveHeapBytes()
		run := program.NewRun(prog)
		var exps []*core.Explainer
		for _, p := range prog.Peers() {
			exps = append(exps, core.NewExplainer(run, p))
		}
		var appendB, appendAllocs, syncB uint64
		var before, mid, after runtime.MemStats
		for i := 0; i < n; i++ {
			e, err := program.NewEvent(prog.Rule(rules[i%4]), map[string]data.Value{"x": data.Value(fmt.Sprintf("c%d", i/4))})
			if err != nil {
				return nil, err
			}
			runtime.ReadMemStats(&before)
			if err := run.Append(e); err != nil {
				return nil, fmt.Errorf("E21: event %d: %w", i, err)
			}
			runtime.ReadMemStats(&mid)
			for _, ex := range exps {
				ex.SyncTo(run.Len())
			}
			runtime.ReadMemStats(&after)
			appendB += mid.TotalAlloc - before.TotalAlloc
			appendAllocs += mid.Mallocs - before.Mallocs
			syncB += after.TotalAlloc - mid.TotalAlloc
		}
		live := liveHeapBytes()
		mb := float64(live-min(base, live)) / (1 << 20)
		runtime.KeepAlive(exps)
		ratio, bound, err := heapGrowth("hiring", prevMB, mb, sizes, k)
		if err != nil {
			return nil, err
		}
		prevMB = mb
		fn := float64(n)
		t.AddRow("hiring", "Append", fmt.Sprint(n), fmt.Sprintf("%.1f", mb), ratio, bound,
			fmt.Sprintf("%.0f", float64(appendB)/fn), fmt.Sprintf("%.1f", float64(appendAllocs)/fn), "—",
			fmt.Sprintf("%.0f", float64(syncB)/fn), "—")
	}
	crowd, err := workload.Crowdsourcing(2)
	if err != nil {
		return nil, err
	}
	for _, sw := range []struct {
		name string
		prog *program.Program
		next func(int) workload.Firing
	}{
		{"crowdsourcing", crowd, workload.CrowdFiring},
		{"revisions", workload.Revisions(), workload.RevisionFiring},
	} {
		run := program.NewRun(sw.prog)
		var b0, m0, prevMB float64
		for k, n := range sizes {
			for run.Len() < n {
				f := sw.next(run.Len())
				if _, err := run.FireRule(f.Rule, f.Bindings); err != nil {
					return nil, fmt.Errorf("E21: %s event %d: %w", sw.name, run.Len(), err)
				}
			}
			mb, syncUS := explainerFootprint(run, n)
			ratio, bound, err := heapGrowth(sw.name+" explainer", prevMB, mb, sizes, k)
			if err != nil {
				return nil, err
			}
			prevMB = mb
			t.AddRow(sw.name, "explainer", fmt.Sprint(n), fmt.Sprintf("%.2f", mb), ratio, bound, "—", "—", "—", "—",
				fmt.Sprintf("%.1f", syncUS))
			// 700 fires: 100 whole crowdsourcing tasks.
			b, m, err := workload.FireCost(run, sw.next, 700)
			if err != nil {
				return nil, fmt.Errorf("E21: %s: %w", sw.name, err)
			}
			if k == 0 {
				b0, m0 = b, m
			}
			allocBound := m0 + e21FireAllocs + e21FireAllocsPerDoubling*max(0, math.Log2(float64(n)/float64(sizes[0]))-2)
			if b > e21FireBytes*b0 {
				return nil, fmt.Errorf("E21: %s: bytes per fire grew %.2f× from %d to %d events, bound %.2f×",
					sw.name, b/b0, sizes[0], n, e21FireBytes)
			}
			if m > allocBound {
				return nil, fmt.Errorf("E21: %s: %.1f allocations per fire at %d events, bound %.1f",
					sw.name, m, n, allocBound)
			}
			t.AddRow(sw.name, "FireRule", fmt.Sprint(n), "—", "—", "—",
				fmt.Sprintf("%.0f", b), fmt.Sprintf("%.1f", m), fmt.Sprintf("%.1f", allocBound), "—", "—")
		}
	}
	t.Notef("retained heap bound %.1f× per doubling (scaled by log2 of each step), asserted in every mode", e21HeapPerDoubling)
	t.Notef("FireRule cost bounds against the first size: bytes ≤ %.2f×, allocations ≤ +%d up to 4× and +%d per doubling beyond, asserted in every mode",
		e21FireBytes, e21FireAllocs, e21FireAllocsPerDoubling)
	return t, nil
}

// heapGrowth checks the growth of retained heap from mb0 MB at sizes[k-1]
// events to mb at sizes[k] against e21HeapPerDoubling and returns both as
// table cells, dashes at the first size.
func heapGrowth(what string, mb0, mb float64, sizes []int, k int) (ratio, bound string, err error) {
	if k == 0 {
		return "—", "—", nil
	}
	n0, n := sizes[k-1], sizes[k]
	r := mb / mb0
	limit := math.Pow(e21HeapPerDoubling, math.Log2(float64(n)/float64(n0)))
	if r > limit {
		return "", "", fmt.Errorf("E21: %s retained heap grew %.2f× from %d to %d events, bound %.2f× (%.1f× per doubling)",
			what, r, n0, n, limit, e21HeapPerDoubling)
	}
	return fmt.Sprintf("%.2f", r), fmt.Sprintf("%.2f", limit), nil
}

// explainerFootprint builds an explainer of every peer over the first n
// events of run and returns the heap it retains, in MB, and its SyncTo's
// µs per event.
func explainerFootprint(run *program.Run, n int) (mb, usPerEvent float64) {
	base := liveHeapBytes()
	start := time.Now()
	ex := core.NewRunExplainerAt(run, run.Prog.Peers(), 0)
	ex.SyncTo(n)
	usPerEvent = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
	live := liveHeapBytes()
	runtime.KeepAlive(ex)
	return float64(live-min(base, live)) / (1 << 20), usPerEvent
}

// liveHeapBytes is the heap still reachable after two full collections.
func liveHeapBytes() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
