package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"collabwf/internal/obs"
	"collabwf/internal/transparency"
	"collabwf/internal/workload"
)

// spanNames collects the set of span names in a trace.
func spanNames(td *obs.TraceData) map[string]*obs.SpanData {
	out := make(map[string]*obs.SpanData, len(td.Spans))
	for _, sp := range td.Spans {
		out[sp.Name] = sp
	}
	return out
}

func TestSubmitTraceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	logger, err := obs.NewLogger(&logBuf, "debug", obs.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	c := newCoordinator(t, "Hiring", workload.Hiring(), DurabilityConfig{Dir: dir, Metrics: reg, Logger: logger})
	defer c.Close()
	tracer := obs.NewTracer(obs.TracerOptions{})
	h := NewHandler(c, HTTPOptions{Logger: logger, Tracer: tracer})

	body := `{"peer":"hr","rule":"clear","bindings":{}}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/submit", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body.String())
	}

	traces := tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("recorder holds %d traces, want 1", len(traces))
	}
	td := traces[0]
	if td.Root != "http /submit" {
		t.Errorf("root span = %q", td.Root)
	}
	if td.Error {
		t.Error("accepted submit must not mark the trace as error")
	}
	names := spanNames(td)
	for _, want := range []string{"http /submit", "coordinator.submit", "wal.append", "wal.fsync"} {
		sp, ok := names[want]
		if !ok {
			t.Errorf("trace lacks span %q (have %v)", want, td.Spans)
			continue
		}
		if sp.TraceID != td.TraceID {
			t.Errorf("span %s carries trace id %s, want %s", want, sp.TraceID, td.TraceID)
		}
		if sp.Unfinished {
			t.Errorf("span %s unfinished", want)
		}
	}
	if names["coordinator.submit"].ParentID != names["http /submit"].SpanID {
		t.Error("coordinator.submit must be a child of the HTTP span")
	}

	// The coordinator's slog lines carry the same trace id.
	if !strings.Contains(logBuf.String(), `"trace_id":"`+td.TraceID+`"`) {
		t.Errorf("log output lacks trace_id %s:\n%s", td.TraceID, logBuf.String())
	}

	// The latency histogram's bucket exemplar references the trace — in the
	// OpenMetrics exposition only; the 0.0.4 text format must stay clean.
	var metricsBuf bytes.Buffer
	if err := reg.WriteOpenMetrics(&metricsBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metricsBuf.String(), `# {trace_id="`+td.TraceID+`"}`) {
		t.Error("OpenMetrics exposition lacks a latency exemplar with the submit trace id")
	}
	metricsBuf.Reset()
	if err := reg.WritePrometheus(&metricsBuf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(metricsBuf.String(), "# {trace_id=") {
		t.Error("Prometheus text exposition must not carry exemplars")
	}

	// Probe routes are not traced: polling them must not evict real traces.
	for _, probe := range []string{"/healthz", "/readyz"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", probe, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s status %d", probe, rec.Code)
		}
	}
	if got := len(tracer.Traces()); got != 1 {
		t.Errorf("recorder holds %d traces after probe requests, want 1 (probes must not be traced)", got)
	}
}

func TestSubmitTraceJoinsRemoteParent(t *testing.T) {
	c := New("Hiring", workload.Hiring())
	tracer := obs.NewTracer(obs.TracerOptions{})
	h := NewHandler(c, HTTPOptions{Tracer: tracer})

	req := httptest.NewRequest("POST", "/submit", strings.NewReader(`{"peer":"hr","rule":"clear","bindings":{}}`))
	req.Header.Set("traceparent", "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("submit status %d", rec.Code)
	}
	td := tracer.Trace("0123456789abcdef0123456789abcdef")
	if td == nil {
		t.Fatal("server did not join the remote trace")
	}
	if td.Spans[0].ParentID != "0123456789abcdef" {
		t.Errorf("root parent = %q, want the remote span id", td.Spans[0].ParentID)
	}
}

func TestRejectedSubmitTraceCarriesError(t *testing.T) {
	c := New("Hiring", workload.Hiring())
	// Retain errors only: the rejected submit must be kept, an accepted one
	// discarded.
	tracer := obs.NewTracer(obs.TracerOptions{Policy: obs.SampleOnError})
	h := NewHandler(c, HTTPOptions{Tracer: tracer})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/submit", strings.NewReader(`{"peer":"hr","rule":"clear","bindings":{}}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("accepted submit status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/submit", strings.NewReader(`{"peer":"sue","rule":"clear","bindings":{}}`)))
	if rec.Code != http.StatusConflict {
		t.Fatalf("foreign-rule submit status %d, want 409", rec.Code)
	}

	traces := tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("on-error sampling retained %d traces, want 1", len(traces))
	}
	td := traces[0]
	if !td.Error {
		t.Error("rejected submit trace not marked as error")
	}
	sub := spanNames(td)["coordinator.submit"]
	if sub == nil || sub.Error == "" {
		t.Errorf("coordinator.submit span should record the rejection, got %+v", sub)
	}
}

func TestCertifyTraceCarriesSearchStats(t *testing.T) {
	// Chain(1) is 1-bounded and transparent for p, so /certify succeeds
	// quickly with the handler's default search options.
	prog, _, err := workload.Chain(1)
	if err != nil {
		t.Fatal(err)
	}
	c := New("Chain", prog)
	tracer := obs.NewTracer(obs.TracerOptions{})
	h := NewHandler(c, HTTPOptions{Tracer: tracer})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/certify?peer=p&h=1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("certify status %d: %s", rec.Code, rec.Body.String())
	}
	td := tracer.Trace(tracer.Traces()[0].TraceID)
	names := spanNames(td)
	for _, want := range []string{"http /certify", "server.certify", "transparency.check_bounded", "transparency.check_transparent"} {
		if _, ok := names[want]; !ok {
			t.Errorf("certify trace lacks span %q", want)
		}
	}
	cert := names["server.certify"]
	if cert == nil {
		t.Fatal("no server.certify span")
	}
	// The span carries the decider search statistics as attributes; the
	// deciders explored at least one node for a non-trivial workflow.
	nodes, ok := cert.Attrs["nodes"]
	if !ok {
		t.Fatalf("server.certify attrs = %v, want nodes", cert.Attrs)
	}
	if n, ok := nodes.(int64); !ok || n <= 0 {
		t.Errorf("nodes attr = %v (%T), want positive int64", nodes, nodes)
	}
	for _, key := range []string{"cache_hits", "cache_misses", "states", "workers"} {
		if _, ok := cert.Attrs[key]; !ok {
			t.Errorf("server.certify missing attr %q", key)
		}
	}
	// The per-phase decider spans carry their own effort counters.
	if _, ok := names["transparency.check_bounded"].Attrs["nodes"]; !ok {
		t.Error("check_bounded span lacks nodes attr")
	}
}

func TestCertifySpanStatsMatchDirectCall(t *testing.T) {
	// The attrs on the span must agree with what Certify reports through the
	// metrics registry for the same workload (same spec, fresh caches).
	// Hiring is 3-bounded but not transparent for sue, so Certify returns a
	// violation — the span must still carry the search effort (and the error).
	tracer := obs.NewTracer(obs.TracerOptions{})
	c := New("Hiring", workload.Hiring())
	ctx, root := obs.StartSpan(obs.ContextWithTracer(context.Background(), tracer), "root")
	opts := transparency.Options{PoolFresh: 2, MaxTuplesPerRelation: 1, Parallelism: 1}
	if err := c.Certify(ctx, "sue", 3, opts); err == nil {
		t.Fatal("expected a transparency violation for sue")
	}
	root.End()
	td := tracer.Traces()[0]
	cert := spanNames(td)["server.certify"]
	if cert == nil {
		t.Fatal("no server.certify span")
	}

	reg := obs.NewRegistry()
	c2 := newCoordinator(t, "Hiring", workload.Hiring(), DurabilityConfig{Metrics: reg})
	if err := c2.Certify(context.Background(), "sue", 3, opts); err == nil {
		t.Fatal("expected a transparency violation for sue")
	}
	var regNodes float64
	for _, fam := range reg.Gather() {
		if fam.Name == "wf_decider_nodes_total" {
			for _, s := range fam.Series {
				regNodes += s.Value
			}
		}
	}
	if n, _ := cert.Attrs["nodes"].(int64); float64(n) != regNodes {
		t.Errorf("span nodes = %v, registry wf_decider_nodes_total = %v", cert.Attrs["nodes"], regNodes)
	}
}
