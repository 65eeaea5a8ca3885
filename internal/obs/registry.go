// Package obs is the observability layer of the reproduction: a
// dependency-free metrics registry (atomic counters, gauges and bucketed
// histograms with snapshot-consistent reads, exposed in the Prometheus text
// format) plus a log/slog-based structured-logging setup with per-subsystem
// loggers. The paper's whole subject is explaining workflow runs to peers;
// obs applies the same standard to the engine itself — every layer (HTTP,
// coordinator, WAL, decider search) reports what it is doing through one
// registry.
//
// The registry is get-or-create: registering a family that already exists
// returns the existing metric (names are process-global identities), so
// independently constructed components — two WAL logs, a recovered
// coordinator — share series instead of colliding. Type or label-arity
// mismatches panic: they are programmer errors, not runtime conditions.
package obs

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// MetricType classifies a family for exposition.
type MetricType int

const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram
)

func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	}
	return "untyped"
}

// DefBuckets is the default latency histogram layout (seconds), matching
// the conventional Prometheus defaults.
var DefBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain counters from a Registry.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are a programmer error and are ignored.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down. It stores a float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; gauges are read-mostly).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a bucketed distribution with snapshot-consistent reads: the
// (count, sum, buckets) triple returned by Snapshot always satisfies
// count == Σ bucket counts, even under concurrent Observe traffic. It uses
// the double-bank scheme: observations land in the "hot" bank; Snapshot
// atomically redirects new observations to the other bank, waits for the
// stragglers that already chose the old bank, then folds it into the
// cumulative totals.
type Histogram struct {
	upper []float64 // sorted bucket upper bounds; +Inf is implicit

	// countAndHotIdx packs the hot-bank index (bit 63) with the number of
	// observations started (low 63 bits), so an observer picks a bank and
	// registers itself in one atomic add.
	countAndHotIdx atomic.Uint64
	banks          [2]histBank

	// exemplars holds the latest traced observation per bucket (last slot
	// is the +Inf bucket); last-writer-wins, read at snapshot time.
	exemplars []atomic.Pointer[Exemplar]

	mu        sync.Mutex // serializes snapshots
	harvested uint64     // observations folded into cum* so far
	cumCounts []uint64
	cumSum    float64
}

// Exemplar ties one concrete observation — and the trace it came from — to
// a histogram bucket, so a latency spike on a dashboard links directly to a
// retained trace in the flight recorder.
type Exemplar struct {
	TraceID string    `json:"trace_id"`
	Value   float64   `json:"value"`
	Time    time.Time `json:"time"`
}

type histBank struct {
	counts   []atomic.Uint64
	sumBits  atomic.Uint64 // float64 bits, CAS-accumulated
	finished atomic.Uint64
}

const hotBit = uint64(1) << 63

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	h := &Histogram{upper: upper, cumCounts: make([]uint64, len(upper)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(upper)+1)}
	for b := range h.banks {
		h.banks[b].counts = make([]atomic.Uint64, len(upper)+1)
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	n := h.countAndHotIdx.Add(1)
	b := &h.banks[n>>63]
	i := sort.SearchFloat64s(h.upper, v) // first bound ≥ v: the inclusive le-bucket
	b.counts[i].Add(1)
	for {
		old := b.sumBits.Load()
		if b.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	b.finished.Add(1)
}

// ObserveExemplar records one value and, when traceID is non-empty, stamps
// the matched bucket's exemplar with it. With an empty traceID it is
// exactly Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.upper, v)
	h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v, Time: time.Now()})
}

// HistogramSnapshot is a consistent point-in-time view of a histogram.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	// Buckets holds the cumulative count of observations ≤ each upper
	// bound, in bound order; the implicit +Inf bucket equals Count.
	Buckets []BucketCount `json:"buckets,omitempty"`
	// InfExemplar is the latest traced observation that landed above the
	// highest explicit bound (the +Inf bucket), if any.
	InfExemplar *Exemplar `json:"inf_exemplar,omitempty"`
}

// BucketCount is one cumulative ≤-bound entry.
type BucketCount struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
	// Exemplar is the latest traced observation that landed in this bucket
	// (non-cumulative), if any.
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// Snapshot returns a consistent (count, sum, buckets) triple.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Flip the hot bank: the add toggles bit 63 (the carry out of the low
	// bits never reaches it in practice) and returns the post-flip value,
	// whose low bits count every observation started before the flip.
	n := h.countAndHotIdx.Add(hotBit)
	count := n &^ hotBit
	cold := &h.banks[(n>>63)^1]
	// Wait for observers that picked the now-cold bank before the flip.
	for cold.finished.Load() != count-h.harvested {
		runtime.Gosched()
	}
	for i := range cold.counts {
		h.cumCounts[i] += cold.counts[i].Swap(0)
	}
	h.cumSum += math.Float64frombits(cold.sumBits.Swap(0))
	cold.finished.Store(0)
	h.harvested = count

	snap := HistogramSnapshot{Count: count, Sum: h.cumSum}
	cum := uint64(0)
	for i, ub := range h.upper {
		cum += h.cumCounts[i]
		snap.Buckets = append(snap.Buckets, BucketCount{Le: ub, Count: cum, Exemplar: h.exemplars[i].Load()})
	}
	snap.InfExemplar = h.exemplars[len(h.upper)].Load()
	return snap
}

// family is one registered metric name with its help text, type and label
// schema; series within it are keyed by their label values.
type family struct {
	name    string
	help    string
	typ     MetricType
	labels  []string
	buckets []float64

	mu     sync.RWMutex
	series map[string]any // *Counter | *Gauge | *Histogram, keyed by joined label values
}

func (f *family) get(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.RLock()
	m, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	var m2 any
	switch f.typ {
	case TypeCounter:
		m2 = &Counter{}
	case TypeGauge:
		m2 = &Gauge{}
	case TypeHistogram:
		m2 = newHistogram(f.buckets)
	}
	f.series[key] = m2
	return m2
}

// Registry holds metric families. The zero value is not usable; use
// NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family

	hookMu   sync.Mutex
	hooks    []gatherHook
	nextHook uint64
}

type gatherHook struct {
	id uint64
	fn func()
}

// OnGather registers a hook that runs at the start of every Gather (and
// hence every /metrics scrape), before families are snapshotted. Hooks pull
// lazily sampled values — runtime memory stats, uptime — into the registry
// only when someone is actually reading it. The returned function removes
// the hook (idempotent), releasing whatever it captured.
func (r *Registry) OnGather(fn func()) (remove func()) {
	r.hookMu.Lock()
	r.nextHook++
	id := r.nextHook
	r.hooks = append(r.hooks, gatherHook{id, fn})
	r.hookMu.Unlock()
	return func() {
		r.hookMu.Lock()
		defer r.hookMu.Unlock()
		for i, h := range r.hooks {
			if h.id == id {
				// Clear the vacated slot so the backing array does not
				// keep the hook's captures alive.
				last := len(r.hooks) - 1
				copy(r.hooks[i:], r.hooks[i+1:])
				r.hooks[last] = gatherHook{}
				r.hooks = r.hooks[:last]
				return
			}
		}
	}
}

// Hooks returns the number of registered gather hooks.
func (r *Registry) Hooks() int {
	r.hookMu.Lock()
	defer r.hookMu.Unlock()
	return len(r.hooks)
}

// DeleteSeries removes, from every family with the given label, the series
// whose value for it is value — e.g. all {run="r7"} series of an archived
// run. Handles to removed series stay usable but are no longer exported.
func (r *Registry) DeleteSeries(label, value string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, f := range r.families {
		pos := -1
		for i, l := range f.labels {
			if l == label {
				pos = i
			}
		}
		if pos < 0 {
			continue
		}
		f.mu.Lock()
		for k := range f.series {
			if strings.Split(k, "\x00")[pos] == value {
				delete(f.series, k)
			}
		}
		f.mu.Unlock()
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry used when components are not handed
// an explicit one.
var Default = NewRegistry()

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && !(i > 0 && r >= '0' && r <= '9') {
			return false
		}
	}
	return true
}

// register returns the family for name, creating it on first use. A
// re-registration with a different type or label schema panics.
func (r *Registry) register(name, help string, typ MetricType, labels []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l, name))
		}
	}
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		f, ok = r.families[name]
		if !ok {
			f = &family{name: name, help: help, typ: typ,
				labels:  append([]string(nil), labels...),
				buckets: append([]float64(nil), buckets...),
				series:  make(map[string]any)}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s(%d labels), was %s(%d labels)",
			name, typ, len(labels), f.typ, len(f.labels)))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("obs: metric %s re-registered with labels %v, was %v", name, labels, f.labels))
		}
	}
	return f
}

// Counter returns the unlabeled counter for name, registering it on first
// use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, TypeCounter, nil, nil).get(nil).(*Counter)
}

// Gauge returns the unlabeled gauge for name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, TypeGauge, nil, nil).get(nil).(*Gauge)
}

// Histogram returns the unlabeled histogram for name. buckets are upper
// bounds; nil selects DefBuckets. The layout is fixed at first registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, TypeHistogram, nil, buckets).get(nil).(*Histogram)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the series for the given label values (in label order).
func (v CounterVec) With(values ...string) *Counter { return v.f.get(values).(*Counter) }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the series for the given label values.
func (v GaugeVec) With(values ...string) *Gauge { return v.f.get(values).(*Gauge) }

// HistogramVec is a histogram family with labels; every series shares the
// bucket layout.
type HistogramVec struct{ f *family }

// With returns the series for the given label values.
func (v HistogramVec) With(values ...string) *Histogram { return v.f.get(values).(*Histogram) }

// CounterVec registers (or retrieves) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) CounterVec {
	return CounterVec{r.register(name, help, TypeCounter, labels, nil)}
}

// GaugeVec registers (or retrieves) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r.register(name, help, TypeGauge, labels, nil)}
}

// HistogramVec registers (or retrieves) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) HistogramVec {
	return HistogramVec{r.register(name, help, TypeHistogram, labels, buckets)}
}

// Label is one name=value pair of a series.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// SeriesSnapshot is one series' point-in-time state.
type SeriesSnapshot struct {
	Labels []Label            `json:"labels,omitempty"`
	Value  float64            `json:"value"`
	Hist   *HistogramSnapshot `json:"hist,omitempty"`
}

// FamilySnapshot is one family's point-in-time state.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help"`
	Type   string           `json:"type"`
	Series []SeriesSnapshot `json:"series,omitempty"`
}

// Gather snapshots every family, sorted by name (series sorted by label
// values). Counters and gauges are individually atomic; histograms are
// snapshot-consistent (see Histogram.Snapshot).
func (r *Registry) Gather() []FamilySnapshot {
	r.hookMu.Lock()
	hooks := make([]gatherHook, len(r.hooks))
	copy(hooks, r.hooks)
	r.hookMu.Unlock()
	for _, h := range hooks {
		h.fn()
	}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ.String()}
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			var ss SeriesSnapshot
			if k != "" || len(f.labels) > 0 {
				values := strings.Split(k, "\x00")
				for i, l := range f.labels {
					ss.Labels = append(ss.Labels, Label{Name: l, Value: values[i]})
				}
			}
			switch m := f.series[k].(type) {
			case *Counter:
				ss.Value = float64(m.Value())
			case *Gauge:
				ss.Value = m.Value()
			case *Histogram:
				h := m.Snapshot()
				ss.Hist = &h
			}
			fs.Series = append(fs.Series, ss)
		}
		f.mu.RUnlock()
		out = append(out, fs)
	}
	return out
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4). Families with no series still emit their HELP and
// TYPE header lines, so scrapers and CI checks see every registered family.
// Exemplars are NOT written: the 0.0.4 text parser rejects the trailing
// " # {…}" annotation after a sample value, so they only appear in
// WriteOpenMetrics output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeExposition(w, false)
}

// WriteOpenMetrics writes the registry in the OpenMetrics text exposition
// format: the same families and samples as WritePrometheus, plus per-bucket
// exemplar annotations (" # {trace_id=\"…\"} value ts") and the mandatory
// "# EOF" terminator. Serve this only to clients that negotiated
// "application/openmetrics-text" (see MetricsHandler).
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if err := r.writeExposition(w, true); err != nil {
		return err
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

func (r *Registry) writeExposition(w io.Writer, exemplars bool) error {
	suffix := func(e *Exemplar) string {
		if !exemplars {
			return ""
		}
		return exemplarSuffix(e)
	}
	for _, fam := range r.Gather() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			fam.Name, escapeHelp(fam.Help), fam.Name, fam.Type); err != nil {
			return err
		}
		for _, s := range fam.Series {
			if s.Hist == nil {
				if _, err := fmt.Fprintf(w, "%s%s %s\n", fam.Name, labelString(s.Labels, "", 0), formatFloat(s.Value)); err != nil {
					return err
				}
				continue
			}
			for _, b := range s.Hist.Buckets {
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", fam.Name, labelString(s.Labels, "le", b.Le), b.Count, suffix(b.Exemplar)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", fam.Name, labelString(s.Labels, "le", math.Inf(1)), s.Hist.Count, suffix(s.Hist.InfExemplar)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
				fam.Name, labelString(s.Labels, "", 0), formatFloat(s.Hist.Sum),
				fam.Name, labelString(s.Labels, "", 0), s.Hist.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// labelString renders {a="x",le="0.5"}; extra (the le bound) is appended
// when extraName is non-empty. No labels at all renders as "".
func labelString(labels []Label, extraName string, extra float64) string {
	if len(labels) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(formatFloat(extra))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// exemplarSuffix renders an OpenMetrics exemplar annotation
// (" # {trace_id=\"…\"} value timestamp") for a bucket line, or "" when the
// bucket has none. Only WriteOpenMetrics emits these — the Prometheus 0.0.4
// text parser treats a trailing '#' after the value as a parse error.
func exemplarSuffix(e *Exemplar) string {
	if e == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=%q} %s %s", e.TraceID, formatFloat(e.Value),
		strconv.FormatFloat(float64(e.Time.UnixNano())/1e9, 'f', 3, 64))
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
