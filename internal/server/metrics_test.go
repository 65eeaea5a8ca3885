package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"collabwf/internal/core"
	"collabwf/internal/obs"
	"collabwf/internal/workload"
)

// seriesValue returns the value of one series of a family, identified by
// its label values in registration order; ok is false when the family or
// series does not exist.
func seriesValue(reg *obs.Registry, name string, labels ...string) (float64, bool) {
	for _, fam := range reg.Gather() {
		if fam.Name != name {
			continue
		}
		for _, s := range fam.Series {
			if len(s.Labels) != len(labels) {
				continue
			}
			match := true
			for i, l := range s.Labels {
				if l.Value != labels[i] {
					match = false
					break
				}
			}
			if match {
				return s.Value, true
			}
		}
	}
	return 0, false
}

func TestMiddlewareRequestMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := New("Hiring", workload.Hiring())
	m := c.InstrumentRun(reg, DefaultRun)
	srv := httptest.NewServer(NewHandler(c, HTTPOptions{Metrics: m}))
	defer srv.Close()

	get := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	post := func(path, body string, want int) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	get("/healthz", http.StatusOK)
	get("/healthz", http.StatusOK)
	post("/submit", "not json", http.StatusBadRequest)
	post("/submit", `{"peer":"hr","rule":"no_such_rule"}`, http.StatusConflict)
	post("/submit", `{"peer":"hr","rule":"clear","bindings":{"x":"sue"}}`, http.StatusOK)

	cases := []struct {
		route, class string
		want         float64
	}{
		{"/healthz", "2xx", 2},
		{"/submit", "4xx", 2}, // the 400 and the 409
		{"/submit", "2xx", 1},
	}
	for _, tc := range cases {
		got, ok := seriesValue(reg, "wf_http_requests_total", tc.route, tc.class)
		if !ok || got != tc.want {
			t.Errorf("wf_http_requests_total{%s,%s} = %v (ok=%v), want %v", tc.route, tc.class, got, ok, tc.want)
		}
	}
	if v, ok := seriesValue(reg, "wf_submissions_accepted_total", DefaultRun); !ok || v != 1 {
		t.Errorf("wf_submissions_accepted_total = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := seriesValue(reg, "wf_submissions_rejected_total", DefaultRun, "unknown_rule"); !ok || v != 1 {
		t.Errorf("wf_submissions_rejected_total{unknown_rule} = %v (ok=%v), want 1", v, ok)
	}

	// The latency histogram saw every request on each instrumented route.
	for _, fam := range reg.Gather() {
		if fam.Name != "wf_http_request_duration_seconds" {
			continue
		}
		var total uint64
		for _, s := range fam.Series {
			if s.Hist != nil {
				total += s.Hist.Count
			}
		}
		if total != 5 {
			t.Errorf("latency histogram count = %d, want 5", total)
		}
	}

	// /metrics itself serves the families in Prometheus text format and is
	// not instrumented (scrapes must not move the histograms they read).
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	text := body.String()
	for _, want := range []string{
		"# TYPE wf_http_requests_total counter",
		"# TYPE wf_http_request_duration_seconds histogram",
		`wf_http_requests_total{route="/submit",code="4xx"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics output missing %q", want)
		}
	}
	if v, _ := seriesValue(reg, "wf_http_requests_total", "/metrics", "2xx"); v != 0 {
		t.Errorf("/metrics scrape was itself counted: %v", v)
	}
}

func TestCertifyStatsReachRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	c := New("Hiring", workload.Hiring())
	c.InstrumentRun(reg, DefaultRun)

	// Hiring is 3-bounded but not transparent for sue: the bounded check
	// passes, the transparency check returns a violation — both invocations
	// and the combined search effort must land in the registry.
	err := c.Certify(context.Background(), "sue", 3, core.Options{PoolFresh: 2, MaxTuplesPerRelation: 1})
	if err == nil {
		t.Fatal("expected a transparency violation for sue")
	}
	if v, ok := seriesValue(reg, "wf_decider_runs_total", DefaultRun, "bounded", "ok"); !ok || v != 1 {
		t.Errorf("wf_decider_runs_total{bounded,ok} = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := seriesValue(reg, "wf_decider_runs_total", DefaultRun, "transparent", "violation"); !ok || v != 1 {
		t.Errorf("wf_decider_runs_total{transparent,violation} = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := seriesValue(reg, "wf_decider_nodes_total", DefaultRun); !ok || v <= 0 {
		t.Errorf("wf_decider_nodes_total = %v (ok=%v), want > 0", v, ok)
	}
	if v, ok := seriesValue(reg, "wf_decider_states_total", DefaultRun); !ok || v <= 0 {
		t.Errorf("wf_decider_states_total = %v (ok=%v), want > 0", v, ok)
	}
}

// TestStatuszReportsDrops: the one change feed is the published snapshot,
// which a slow reader cannot overflow, so /statusz reports the released
// prefix and its snapshot and carries no subscriber or dropped-notification
// fields.
func TestStatuszReportsDrops(t *testing.T) {
	reg := obs.NewRegistry()
	c := New("Hiring", workload.Hiring())
	c.InstrumentRun(reg, DefaultRun)
	if _, err := c.Submit("hr", "clear", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("hr", "clear", nil); err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	StatuszHandler(c).ServeHTTP(rr, httptest.NewRequest("GET", "/statusz", nil))
	var st Statusz
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("statusz is not JSON: %v", err)
	}
	if st.Events != 2 || st.Snapshot.Events != 2 {
		t.Errorf("events = %d, snapshot events = %d, want 2 and 2", st.Events, st.Snapshot.Events)
	}
	var raw map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for field := range raw {
		if strings.Contains(field, "subscri") || strings.Contains(field, "notif") {
			t.Errorf("statusz still reports listener accounting: %q", field)
		}
	}
}
