package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"collabwf/internal/workload"
)

func postSubmit(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/submit", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestSubmitHardening(t *testing.T) {
	c := New("Hiring", workload.Hiring())
	srv := httptest.NewServer(NewHandler(c, HTTPOptions{MaxBodyBytes: 256}))
	defer srv.Close()

	// Malformed JSON is a client error (400), not a coordinator conflict.
	if code, out := postSubmit(t, srv.URL, `{"peer": "hr", `); code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d (%v)", code, out)
	}
	// Unknown fields are rejected: they are silent typos at best.
	if code, out := postSubmit(t, srv.URL, `{"peer":"hr","rule":"clear","bindingz":{}}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d (%v)", code, out)
	}
	// Trailing garbage after the object is malformed too.
	if code, out := postSubmit(t, srv.URL, `{"peer":"hr","rule":"clear"} trailing`); code != http.StatusBadRequest {
		t.Fatalf("trailing data: status %d (%v)", code, out)
	}
	// Oversized bodies are cut off by MaxBytesReader.
	big := fmt.Sprintf(`{"peer":"hr","rule":"clear","bindings":{"x":%q}}`, strings.Repeat("a", 512))
	if code, out := postSubmit(t, srv.URL, big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d (%v)", code, out)
	}
	// Nothing above touched the run…
	if c.Len() != 0 {
		t.Fatalf("run length %d after rejected requests", c.Len())
	}
	// …and a well-formed submission still lands; coordinator rejections
	// keep their 409.
	if code, out := postSubmit(t, srv.URL, `{"peer":"hr","rule":"clear"}`); code != http.StatusOK {
		t.Fatalf("good submit: status %d (%v)", code, out)
	}
	if code, _ := postSubmit(t, srv.URL, `{"peer":"sue","rule":"clear"}`); code != http.StatusConflict {
		t.Fatalf("foreign rule: status %d", code)
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	h := Recovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out["error"], "kaboom") {
		t.Fatalf("error=%q", out["error"])
	}
}

func TestTimeoutMiddleware(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	})
	srv := httptest.NewServer(WithTimeout(50*time.Millisecond, slow))
	defer srv.Close()
	start := time.Now()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout did not cut the request short (%v)", elapsed)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["error"] == "" {
		t.Fatal("timeout response must be the JSON error body")
	}
}

func TestHealthEndpoints(t *testing.T) {
	c := New("Hiring", workload.Hiring())
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// TestGracefulShutdownIntegration exercises the wfserve lifecycle against
// a real listener: serve, submit, report ready, drain via Shutdown, close
// the coordinator (final snapshot), verify the port is dead and that a
// recovered coordinator carries the full run. After Close, /readyz turns
// 503 and /submit is refused.
func TestGracefulShutdownIntegration(t *testing.T) {
	prog := workload.Hiring()
	dir := t.TempDir()
	c, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: NewHandler(c, HTTPOptions{RequestTimeout: 5 * time.Second})}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	for i := 0; i < 3; i++ {
		if code, out := postSubmit(t, base, `{"peer":"hr","rule":"clear"}`); code != http.StatusOK {
			t.Fatalf("submit %d: status %d (%v)", i, code, out)
		}
	}
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready map[string]any
	json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ready["durable"] != true || ready["events"].(float64) != 3 {
		t.Fatalf("readyz: %d %v", resp.StatusCode, ready)
	}

	// Drain and stop: Shutdown waits for in-flight requests, then the
	// coordinator persists its final snapshot.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener must be closed after shutdown")
	}

	// The closed coordinator reports unready and refuses submissions.
	post := httptest.NewServer(Handler(c))
	defer post.Close()
	resp, err = http.Get(post.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after close: status %d", resp.StatusCode)
	}
	// Shutdown is a retry-safe condition (another replica may be up), so the
	// refusal is 503 + Retry-After, not a definite 409.
	if code, _ := postSubmit(t, post.URL, `{"peer":"hr","rule":"clear"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after close: status %d", code)
	}

	// And the run survives: recovery sees all three events.
	rc, err := NewDurable("Hiring", prog, DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if rc.Len() != 3 {
		t.Fatalf("recovered %d events, want 3", rc.Len())
	}
}
