package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"collabwf/internal/obs"
	"collabwf/internal/workload"
)

func TestStatusClass(t *testing.T) {
	cases := map[int]string{
		200: "2xx", 201: "2xx", 204: "2xx",
		301: "3xx", 304: "3xx",
		400: "4xx", 404: "4xx", 409: "4xx", 499: "4xx",
		500: "5xx", 503: "5xx", 599: "5xx",
	}
	for code, want := range cases {
		if got := statusClass(code); got != want {
			t.Errorf("statusClass(%d) = %q, want %q", code, got, want)
		}
	}
}

// accessLogLine drives one request through AccessLog and returns the decoded
// JSON record.
func accessLogLine(t *testing.T, level string, status int) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, level, obs.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	h := AccessLog(logger, "/view", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/view?peer=sue", nil))
	if rec.Code != status {
		t.Fatalf("middleware altered the status: %d, want %d", rec.Code, status)
	}
	line := strings.TrimSpace(buf.String())
	if line == "" {
		return nil
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("access log is not JSON: %v in %q", err, line)
	}
	return entry
}

func TestAccessLogFields(t *testing.T) {
	entry := accessLogLine(t, "debug", http.StatusOK)
	if entry == nil {
		t.Fatal("no access-log line emitted at debug level")
	}
	if entry["msg"] != "request" {
		t.Errorf("msg = %v", entry["msg"])
	}
	for _, field := range []string{"route", "method", "status", "duration", "remote"} {
		if _, ok := entry[field]; !ok {
			t.Errorf("access log lacks field %q: %v", field, entry)
		}
	}
	if entry["route"] != "/view" || entry["method"] != "GET" {
		t.Errorf("route/method = %v/%v", entry["route"], entry["method"])
	}
	if entry["status"] != float64(http.StatusOK) {
		t.Errorf("status = %v", entry["status"])
	}
	if entry["level"] != "DEBUG" {
		t.Errorf("2xx logged at %v, want DEBUG", entry["level"])
	}
}

func TestAccessLogLevels(t *testing.T) {
	// Server errors escalate to WARN and are visible even at info level.
	entry := accessLogLine(t, "info", http.StatusInternalServerError)
	if entry == nil {
		t.Fatal("5xx response not logged at info level")
	}
	if entry["level"] != "WARN" || entry["status"] != float64(500) {
		t.Errorf("5xx log entry = %v", entry)
	}
	// Successful requests are debug-only: silent at info level.
	if entry := accessLogLine(t, "info", http.StatusOK); entry != nil {
		t.Errorf("2xx should not log at info level, got %v", entry)
	}
	// A nil logger disables the middleware entirely.
	h := AccessLog(nil, "/view", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/view", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("nil-logger passthrough status %d", rec.Code)
	}
}

func TestAccessLogCarriesTraceID(t *testing.T) {
	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, "debug", obs.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(obs.TracerOptions{})
	// Trace outside AccessLog, as NewHandler wires them.
	h := Trace(tracer, "/view", AccessLog(logger, "/view", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/view", nil))

	td := tracer.Traces()
	if len(td) != 1 {
		t.Fatalf("got %d traces", len(td))
	}
	var entry map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &entry); err != nil {
		t.Fatal(err)
	}
	if entry["trace_id"] != td[0].TraceID {
		t.Errorf("access log trace_id = %v, want %s", entry["trace_id"], td[0].TraceID)
	}
}

func TestStatuszFieldPresence(t *testing.T) {
	reg := obs.NewRegistry()
	c := New("Hiring", workload.Hiring())
	c.InstrumentRun(reg, DefaultRun)
	if err := c.Guard("sue", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("hr", "clear", nil); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	StatuszHandler(c, reg).ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("statusz status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}

	// Decode generically to assert on-the-wire field presence.
	var raw map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatalf("statusz is not JSON: %v", err)
	}
	for _, field := range []string{
		"workflow", "uptime_seconds", "events", "durable", "ready",
		"guards", "subscribers", "dropped_notifications", "metrics",
	} {
		if _, ok := raw[field]; !ok {
			t.Errorf("statusz lacks field %q", field)
		}
	}

	var st Statusz
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Workflow != "Hiring" || st.Events != 1 || st.Durable {
		t.Errorf("statusz = %+v", st)
	}
	if st.Ready != "ok" {
		t.Errorf("ready = %q", st.Ready)
	}
	if st.Guards["sue"] != 3 {
		t.Errorf("guards = %v", st.Guards)
	}
	// The metrics section condenses the registry: the submission counter
	// moved when the event was accepted.
	if v, ok := st.Metrics["wf_submissions_accepted_total"].(float64); !ok || v != 1 {
		t.Errorf("metrics.wf_submissions_accepted_total = %v", st.Metrics["wf_submissions_accepted_total"])
	}
	// Histogram families condense to {count, sum}.
	m, ok := st.Metrics["wf_http_request_duration_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("metrics.wf_http_request_duration_seconds = %v", st.Metrics["wf_http_request_duration_seconds"])
	}
	for _, key := range []string{"count", "sum"} {
		if _, ok := m[key]; !ok {
			t.Errorf("histogram summary lacks %s: %v", key, m)
		}
	}
}

func TestStatuszWithoutRegistry(t *testing.T) {
	c := New("Hiring", workload.Hiring())
	rec := httptest.NewRecorder()
	StatuszHandler(c, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("statusz status %d", rec.Code)
	}
	var raw map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["metrics"]; ok {
		t.Error("metrics section should be omitted without a registry")
	}
}
