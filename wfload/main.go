// Command wfload benchmarks the served stack: it builds the repository's
// wfserve, runs it on loopback with its production settings (fsync always,
// a snapshot every 256 events, the decision log in a file), and drives one
// of four workloads through internal/client from this process with at most
// two closed-loop clients, each on its own connection. It prints every
// metric by name with its unit and sample count, checks that the served
// outputs are correct, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root):
//
//	go -C wfload build -o ../.bench_build/wfload . && .bench_build/wfload -workload hiring-long -seed 1
//	bash wfload/run.sh --workload crowd-read --seed 3 --seconds 20 --trace 1
//	.bench_build/wfload -compare a.json b.json
//
// With -trace 0 the JSON carries the end-to-end metrics of BENCHMARK.json;
// with -trace 1 the run is split into an untraced and a traced half and the
// JSON carries the per-layer metrics. -json appends one record per run to a
// file; -compare reads two such files.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// record is one workload run as saved by -json and read by -compare.
type record struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Seconds     int      `json:"seconds"`
	Trace       int      `json:"trace"`
	ServerFlags []string `json:"server_flags"`
	Correct     bool     `json:"correct"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Errors      []string `json:"errors,omitempty"`
	// Metrics are the end-to-end metrics of the untraced pass, Layers the
	// per-layer metrics of a traced run, Detail the ungated breakdown.
	Metrics map[string]metric `json:"metrics"`
	Layers  map[string]metric `json:"layers,omitempty"`
	Detail  map[string]metric `json:"detail"`
}

func main() {
	name := flag.String("workload", "all", "workload to run: hiring-long, hiring-fleet, crowd-read, crowd-mixed or all")
	seed := flag.Int64("seed", 1, "workload seed: picks entity ids, interleavings and task winners")
	seconds := flag.Int("seconds", 20, "measured seconds per workload run")
	traceMode := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	jsonOut := flag.String("json", "", "append one JSON record per workload run to this file")
	compare := flag.Bool("compare", false, "compare two -json files: -compare baseline.json change.json")
	root := flag.String("root", ".", "repository root (holds cmd/wfserve and examples/specs)")
	flag.Parse()

	if *compare {
		os.Exit(runCompare(os.Stdout, flag.Args()))
	}
	if *traceMode != 0 && *traceMode != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w := workloadByName(*name); w != nil {
		ws = []*workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	buildDir := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(buildDir, "wfload-")
	if err != nil {
		fatal(err)
	}
	bin, err := buildServer(ctx, *root, work)
	if err != nil {
		os.RemoveAll(work)
		fatal(err)
	}
	ok := true
	for _, w := range ws {
		rec, err := runWorkload(ctx, w, *root, work, bin, *seed, *seconds, *traceMode == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wfload: %s: %v (server logs kept in %s)\n", w.name, err, work)
			os.Exit(1)
		}
		printRecord(rec)
		if *jsonOut != "" {
			if err := appendRecord(*jsonOut, rec); err != nil {
				fatal(err)
			}
		}
		ok = ok && rec.Correct
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "wfload: output checks failed (server logs kept in %s)\n", work)
		os.Exit(1)
	}
	os.RemoveAll(work)
}

// runWorkload measures w against the wfserve binary bin, keeping the
// server output in the workload's own directory under work.
func runWorkload(ctx context.Context, w *workload, root, work, bin string, seed int64, seconds int, traced bool) (*record, error) {
	dir := filepath.Join(work, w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	r, err := newRunner(w, root, dir, seed)
	if err != nil {
		return nil, err
	}
	r.spawn = wfserveSpawner(bin, r.spec, logf)
	if traced {
		r.traceDir = filepath.Join(root, ".bench_build", "traces")
	}
	rec, err := runOne(ctx, r, time.Duration(seconds)*time.Second, traced)
	if err != nil {
		return nil, err
	}
	rec.Seed, rec.Seconds, rec.ServerFlags = seed, seconds, serverFlags(traced)
	return rec, nil
}

// runOne measures the runner's workload with the given measured time (half
// of it untraced and half traced when traced) and assembles its record.
func runOne(ctx context.Context, r *runner, budget time.Duration, traced bool) (*record, error) {
	o, err := r.run(ctx, budget, traced)
	if err != nil {
		return nil, err
	}
	rec := &record{Workload: r.w.name}
	e2e, detail := endToEndMetrics(o.setup, o.untraced), detailMetrics(o)
	rec.Metrics, rec.Detail = e2e.vals, detail.vals
	var firstErr error
	for _, st := range []*passStats{o.untraced, o.traced} {
		if st != nil {
			rec.Attempted += len(st.calls)
			rec.Failed += st.failed
			if firstErr == nil {
				firstErr = st.firstErr
			}
		}
	}
	// The workloads are chosen so that no operation fails: one that does
	// fails the run.
	if rec.Failed > 0 {
		r.check(fmt.Errorf("%d of %d operations failed, the first: %v", rec.Failed, rec.Attempted, firstErr))
	}
	if traced {
		rec.Trace = 1
		layers := layerMetrics(o)
		rec.Layers = layers.vals
		if v := layers.vals["declog.dropped"].Value; v != 0 {
			r.check(fmt.Errorf("the decision log dropped %g records", v))
		}
		if v := layers.vals["obs.spans_dropped"].Value; v != 0 {
			r.check(fmt.Errorf("%g spans were dropped or missing", v))
		}
		// The traced half's own numbers, for the record only.
		rec.Detail["traced.peak_rss_mb"] = endToEndMetrics(o.setup, o.traced).vals["peak_rss_mb"]
		rec.Detail["traced.ops_per_s"] = metric{o.traced.opsPerSec(), "1/s", o.traced.completed()}
	}
	fmt.Fprintf(os.Stderr, "wfload: %s phases: %s rates %v rss %v\n", r.w.name, strings.Join(o.phases, ", "), o.untraced.rates, o.untraced.rss)
	rec.Errors = r.errs
	rec.Correct = len(r.errs) == 0
	return rec, nil
}

// printRecord prints every metric with its unit and sample count, then the
// result line.
func printRecord(rec *record) {
	fmt.Printf("wfload %s seed=%d seconds=%d trace=%d server=%s\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace,
		strings.Join(rec.ServerFlags, " "))
	show := func(title string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("  %s\n", title)
		for _, n := range names {
			m := ms[n]
			fmt.Printf("    %-34s %14.4f %-11s n=%d\n", n, m.Value, m.Unit, m.N)
		}
	}
	show("end-to-end metrics (untraced)", rec.Metrics)
	reported := rec.Metrics
	if rec.Trace == 1 {
		show("per-layer metrics (traced)", rec.Layers)
		reported = rec.Layers
	}
	show("detail (not gated)", rec.Detail)
	for _, e := range rec.Errors {
		fmt.Printf("  CHECK FAILED: %s\n", e)
	}
	fmt.Printf("  attempted=%d failed=%d correct=%v\n", rec.Attempted, rec.Failed, rec.Correct)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(reported))
	for n, m := range reported {
		vals[n] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, vals})
	fmt.Println(string(line))
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wfload:", err)
	os.Exit(2)
}
