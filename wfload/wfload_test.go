package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"collabwf/internal/obs"
	"collabwf/internal/parse"
	"collabwf/internal/server"
	"collabwf/internal/wal"
)

// repoRoot holds examples/specs and BENCHMARK.json.
const repoRoot = ".."

// generated renders every kind of generated input for one seed.
func generated(t *testing.T, seed int64) []byte {
	t.Helper()
	var ops []op
	take := func(it *interleaver, n int) {
		for k := 0; k < n; k++ {
			o, ok := it.next()
			if !ok {
				t.Fatal("stream ended early")
			}
			ops = append(ops, o)
		}
	}
	take(stream(clientRand(seed, 0), "h0.", 10, hiringEpisode), 40)
	take(stream(clientRand(seed, 1), "m.", -1, crowdEpisode), 70)
	g := &ids{prefix: "f0.", rnd: clientRand(seed, 2)}
	for k := 0; k < 3; k++ {
		ops = append(ops, fleetEpisode(g)...)
	}
	mix := newReadMix(clientRand(seed, 3))
	for k := 0; k < 16; k++ {
		ops = append(ops, mix.next())
	}
	b, err := json.Marshal(ops)
	if err != nil {
		t.Fatal(err)
	}
	spec := loadSpec(t, "crowdsourcing.wf")
	prefix, err := generatePrefix(spec.Name, spec.Program, seed, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return append(b, prefix...)
}

func loadSpec(t *testing.T, file string) *parse.Spec {
	t.Helper()
	src, err := os.ReadFile(filepath.Join(repoRoot, "examples", "specs", file))
	if err != nil {
		t.Fatal(err)
	}
	s, err := parse.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSeedFixesInputs(t *testing.T) {
	a, b := generated(t, 1), generated(t, 1)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	idsOf := func(seed int64) map[string]bool {
		out := map[string]bool{}
		it := stream(clientRand(seed, 0), "h0.", 5, hiringEpisode)
		for o, ok := it.next(); ok; o, ok = it.next() {
			out[o.Bindings["x"]] = true
		}
		return out
	}
	one, two := idsOf(1), idsOf(2)
	for id := range one {
		if two[id] {
			t.Errorf("seeds 1 and 2 both picked id %s", id)
		}
	}
	if bytes.Equal(a, generated(t, 2)) {
		t.Error("seeds 1 and 2 generated the same inputs")
	}
}

func TestInterleaverKeepsEpisodeOrder(t *testing.T) {
	it := stream(rand.New(rand.NewSource(5)), "h.", 20, hiringEpisode)
	want := []string{"clear", "cfo_ok", "approve", "hire"}
	step := map[string]int{}
	open := map[string]bool{}
	for o, ok := it.next(); ok; o, ok = it.next() {
		x := o.Bindings["x"]
		if o.Rule != want[step[x]] {
			t.Fatalf("episode %s: got %s at step %d", x, o.Rule, step[x])
		}
		step[x]++
		open[x] = step[x] < len(want)
		n := 0
		for _, v := range open {
			if v {
				n++
			}
		}
		if n > maxInFlight {
			t.Fatalf("%d episodes in flight, at most %d allowed", n, maxInFlight)
		}
	}
	if len(step) != 20 {
		t.Fatalf("%d episodes, want 20", len(step))
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{{1, 1}, {10, 1}, {50, 5}, {90, 9}, {91, 10}, {100, 10}} {
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g = %g, %v; want %g", c.p, got, err, c.want)
		}
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of an empty sample did not fail")
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	if _, err := tailPercentile(sample(99), 90); err == nil {
		t.Error("p90 of 99 samples (9 beyond) was reported")
	}
	if v, err := tailPercentile(sample(100), 90); err != nil || v != 89 {
		t.Errorf("p90 of 100 samples = %g, %v; want 89", v, err)
	}
	if _, err := tailPercentile(sample(999), 99); err == nil {
		t.Error("p99 of 999 samples (9 beyond) was reported")
	}
	m := newMetrics()
	m.pct("x_p90_ms", sample(50), 90)
	m.pct("x_p50_ms", sample(50), 50)
	if _, ok := m.vals["x_p90_ms"]; ok {
		t.Error("a thin p90 was reported")
	}
	if _, ok := m.vals["x_p50_ms"]; !ok {
		t.Error("the p50 of 50 samples was left out")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
	// statistics.quantiles([3, 1, 2, 10], n=4) == [1.25, 2.5, 8.25]
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 4, 8, 16, 32, 64}, 2, 8, 32},
		{[]float64{3, 1, 2, 10}, 1.25, 2.5, 8.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	d := metricDef{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	if _, v := pairVerdict(d, base, []float64{1.01, 1.02, 1.00, 1.01, 1.03}); v != verdictOK {
		t.Errorf("1%% slower: %s, want ok", v)
	}
	if _, v := pairVerdict(d, base, []float64{1.30, 1.31, 1.29, 1.30, 1.32}); v != verdictRegressed {
		t.Errorf("30%% slower: %s, want regressed", v)
	}
	if _, v := pairVerdict(d, base, []float64{0.5, 1.5, 1.0, 0.6, 1.4}); v != verdictUnresolved {
		t.Errorf("wide spread: %s, want unresolved", v)
	}
	// setup_s: no spread check, and a floor under near-zero medians.
	setup := endToEnd[0]
	if setup.Name != setupMetric {
		t.Fatalf("endToEnd[0] is %s", setup.Name)
	}
	wide := []float64{0.1, 0.2, 0.15, 0.12, 0.18}
	if _, v := pairVerdict(setup, wide, wide); v != verdictOK {
		t.Errorf("setup_s, same wide sample: %s, want ok", v)
	}
	if _, v := pairVerdict(setup, wide, []float64{0.2, 0.3, 0.25, 0.22, 0.28}); v != verdictRegressed {
		t.Errorf("setup_s, median 0.15 -> 0.25: %s, want regressed", v)
	}
	if _, v := pairVerdict(setup, []float64{0.004, 0.005, 0.006}, []float64{0.006, 0.0065, 0.007}); v != verdictOK {
		t.Errorf("setup_s, 5 ms -> 6.5 ms, under the floor: %s, want ok", v)
	}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"op_p50_ms", []float64{0.5, 0.6, 0.7}, verdictBetter},
		{"ops_per_s", []float64{0.5, 0.6, 0.7}, verdictWorse},
		{"ops_per_s", []float64{0.9, 1.5}, verdictOverlap},
	} {
		if v := ungatedVerdict(c.name, base, c.b); v != c.want {
			t.Errorf("%s %v: %s, want %s", c.name, c.b, v, c.want)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return &f
}

func TestBenchmarkFileMatches(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, wfload %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), wfload %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, a, b []metricDef) {
		if len(a) != len(b) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, wfload %d", kind, len(a), len(b))
			return
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, wfload %+v", kind, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) || len(d.Name) > 64 {
			t.Errorf("bad metric name %q", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// tinySizes keep each smoke round at about a hundred operations, enough
// for the p90 of the detail metrics.
var tinySizes = sizes{
	hiringEpisodes:     13,
	fleetRuns:          9,
	crowdReads:         50,
	crowdReadPrefix:    4,
	crowdMixedPrefix:   3,
	crowdMixedEpisodes: 15,
}

// inProcess serves each server the runner starts from the test process: a
// fleet on the data dir behind an httptest listener (its handler wrapped
// by wrap, when given), plus a debug listener when traced. Stopping it
// closes the fleet, so a restart recovers from a clean shutdown rather
// than a crash.
func inProcess(r *runner, wrap func(http.Handler) http.Handler) spawner {
	return func(dataDir, declogDir string, traced bool) (*proc, error) {
		start := time.Now()
		reg := obs.NewRegistry()
		obs.RegisterRuntimeMetrics(reg)
		var tracer *obs.Tracer
		if traced {
			tracer = obs.NewTracer(obs.TracerOptions{Policy: obs.SampleAlways, Capacity: traceBuffer})
		}
		m, err := server.NewManager(server.ManagerConfig{
			Workflow:   r.name,
			Prog:       r.prog,
			DataDir:    dataDir,
			Durability: server.DurabilityConfig{Sync: wal.SyncNever, SnapshotEvery: 256, Metrics: reg},
			HTTP:       server.HTTPOptions{Tracer: tracer},
			Registry:   reg,
		})
		if err != nil {
			return nil, err
		}
		h := m.Handler()
		if wrap != nil {
			h = wrap(h)
		}
		api := httptest.NewServer(h)
		p := &proc{base: api.URL, dir: dataDir, declog: declogDir, pid: os.Getpid()}
		var debug *httptest.Server
		if traced {
			debug = httptest.NewServer(obs.DebugMux(reg, tracer))
			p.debug = debug.URL
		}
		p.kill = func() {
			api.Close()
			if debug != nil {
				debug.Close()
			}
			_ = m.Close() // the next start recovers whatever it left
		}
		p.ready = time.Since(start)
		return p, nil
	}
}

func names(ms map[string]metric) []string {
	out := make([]string, 0, len(ms))
	for n := range ms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func defNames(ds []metricDef) []string {
	out := make([]string, 0, len(ds))
	for _, d := range ds {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload traced, in process and tiny: every output
// check passes and the run reports exactly the metrics BENCHMARK.json
// declares.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := newRunner(w, repoRoot, t.TempDir(), 3)
			if err != nil {
				t.Fatal(err)
			}
			r.sz = tinySizes
			r.spawn = inProcess(r, nil)
			rec, err := runOne(context.Background(), r, time.Nanosecond, true)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", rec.Correct, rec.Attempted, rec.Failed, rec.Errors)
			}
			if got, want := strings.Join(names(rec.Metrics), " "), strings.Join(defNames(f.EndToEnd), " "); got != want {
				t.Errorf("end-to-end metrics:\n got %s\nwant %s", got, want)
			}
			if got, want := strings.Join(names(rec.Layers), " "), strings.Join(defNames(f.PerLayer), " "); got != want {
				t.Errorf("per-layer metrics:\n got %s\nwant %s", got, want)
			}
			for n, m := range rec.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", n, m.Value)
				}
			}
		})
	}
}

// TestFailedCallFailsRun makes the server refuse one read of crowd-read, a
// failure no output check sees: the run still counts it and fails.
func TestFailedCallFailsRun(t *testing.T) {
	r, err := newRunner(workloadByName("crowd-read"), repoRoot, t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	r.sz = tinySizes
	var views atomic.Int32
	r.spawn = inProcess(r, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/view" && views.Add(1) == 5 {
				http.Error(w, "injected failure", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, req)
		})
	})
	rec, err := runOne(context.Background(), r, time.Nanosecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Correct || rec.Failed != 1 || len(rec.Errors) != 1 {
		t.Fatalf("correct=%v failed=%d errors=%v; want a failed run with one failed operation", rec.Correct, rec.Failed, rec.Errors)
	}
}
