package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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

// accessLogLine drives one request through observe's access log and
// returns the decoded JSON record.
func accessLogLine(t *testing.T, level string, status int) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, level, obs.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	h := observe(nil, nil, logger, "/view", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
	// No sink at all disables the middleware entirely.
	h := observe(nil, nil, nil, "/view", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
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
	h := observe(tracer, nil, logger, "/view", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
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
	c := newCoordinator(t, "Hiring", workload.Hiring(), DurabilityConfig{Metrics: reg})
	if err := c.Guard("sue", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("hr", "clear", nil); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	StatuszHandler(c).ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
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
		"guards", "snapshot", "build",
	} {
		if _, ok := raw[field]; !ok {
			t.Errorf("statusz lacks field %q", field)
		}
	}
	// Counters live on /metrics and the rule ranking on /debug/rules:
	// /statusz must not repeat them.
	for _, field := range []string{"metrics", "rule_engine"} {
		if _, ok := raw[field]; ok {
			t.Errorf("statusz duplicates %q", field)
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
}

// TestStatuszWithoutRegistry: an uninstrumented coordinator still serves
// the page.
func TestStatuszWithoutRegistry(t *testing.T) {
	c := New("Hiring", workload.Hiring())
	rec := httptest.NewRecorder()
	StatuszHandler(c).ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("statusz status %d", rec.Code)
	}
	var raw map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["metrics"]; ok {
		t.Error("statusz must not carry a metrics section")
	}
}

// getBehindTimeout serves h behind WithTimeout(d) and Recovery, as
// NewHandler stacks them, and GETs it.
func getBehindTimeout(t *testing.T, d time.Duration, h http.HandlerFunc) *http.Response {
	t.Helper()
	srv := httptest.NewServer(Recovery(WithTimeout(d, h)))
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// The deadline writer passes writes through: the client reads a flushed
// first chunk while the handler is still blocked.
func TestTimeoutPassesWritesThrough(t *testing.T) {
	release := make(chan struct{})
	resp := getBehindTimeout(t, 30*time.Second, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "first ")
		w.(http.Flusher).Flush()
		<-release
		io.WriteString(w, "second")
	})
	first := make([]byte, len("first "))
	if _, err := io.ReadFull(resp.Body, first); err != nil {
		t.Fatal(err)
	}
	close(release)
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(first) + string(rest); resp.StatusCode != http.StatusOK || got != "first second" {
		t.Fatalf("%d %q", resp.StatusCode, got)
	}
}

// A response already started when the deadline passes completes: 200 and
// the whole body.
func TestTimeoutLetsStartedResponseFinish(t *testing.T) {
	resp := getBehindTimeout(t, 20*time.Millisecond, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "started ")
		<-r.Context().Done()
		if _, err := io.WriteString(w, "and finished"); err != nil {
			t.Errorf("write after the deadline of a started response: %v", err)
		}
	})
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || string(body) != "started and finished" {
		t.Fatalf("%d %q", resp.StatusCode, body)
	}
}

// Once the deadline has answered 503, the handler's writes fail with
// http.ErrHandlerTimeout and reach nobody.
func TestTimeoutRejectsWritesAfter503(t *testing.T) {
	release := make(chan struct{})
	writeErr := make(chan error, 1)
	resp := getBehindTimeout(t, 20*time.Millisecond, func(w http.ResponseWriter, r *http.Request) {
		<-release
		_, err := io.WriteString(w, "too late")
		writeErr <- err
	})
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || string(body) != `{"error":"request timed out"}` ||
		resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("%d %s %q", resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	close(release)
	if err := <-writeErr; !errors.Is(err, http.ErrHandlerTimeout) {
		t.Fatalf("write after the 503: %v, want http.ErrHandlerTimeout", err)
	}
}

// A panic behind WithTimeout, raised on the handler's own goroutine, still
// reaches Recovery: 500 with the JSON error.
func TestTimeoutPanicReachesRecovery(t *testing.T) {
	resp := getBehindTimeout(t, 30*time.Second, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Lost", "1")
		panic("kaboom")
	})
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(out["error"], "kaboom") {
		t.Fatalf("%d %v", resp.StatusCode, out)
	}
	if resp.Header.Get("X-Lost") != "" {
		t.Fatal("headers of a handler that never wrote reached the client with the 500")
	}
}

// Headers the handler sets before its first write reach the client, its
// Content-Type replacing the middleware's JSON default.
func TestTimeoutForwardsHeaders(t *testing.T) {
	resp := getBehindTimeout(t, 30*time.Second, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.Header().Set("X-Run", "alpha")
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, "ok")
	})
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Run") != "alpha" ||
		resp.Header.Get("Content-Type") != "text/plain" {
		t.Fatalf("%d %v", resp.StatusCode, resp.Header)
	}
}
