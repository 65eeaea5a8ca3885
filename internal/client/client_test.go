package client_test

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"collabwf/internal/client"
	"collabwf/internal/server"
	"collabwf/internal/workload"
)

// fastOpts keeps test retry loops quick and deterministic.
func fastOpts() client.Options {
	return client.Options{
		RequestTimeout: 2 * time.Second,
		MaxRetries:     6,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     10 * time.Millisecond,
		Rand:           rand.New(rand.NewSource(1)),
	}
}

// TestRetriesTemporaryFailures: 503s and 429s are retried until the server
// recovers; the eventual success is returned transparently.
func TestRetriesTemporaryFailures(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
		case 2:
			http.Error(w, `{"error":"unavailable"}`, http.StatusServiceUnavailable)
		default:
			w.Write([]byte(`{"index":7,"updates":["+A()"]}`))
		}
	}))
	defer ts.Close()
	c := client.New(ts.URL, fastOpts())
	res, err := c.Submit(context.Background(), "hr", "clear", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != 7 {
		t.Fatalf("index = %d, want 7", res.Index)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	if c.Retries() != 2 {
		t.Fatalf("Retries() = %d, want 2", c.Retries())
	}
}

// TestDefiniteRejectionNotRetried: a 409 (guard violation, inapplicable
// rule) is final — exactly one request, the APIError surfaced.
func TestDefiniteRejectionNotRetried(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"rejected by the transparency guard"}`, http.StatusConflict)
	}))
	defer ts.Close()
	c := client.New(ts.URL, fastOpts())
	_, err := c.Submit(context.Background(), "hr", "clear", nil)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusConflict {
		t.Fatalf("err = %v, want 409 APIError", err)
	}
	if ae.Msg == "" {
		t.Fatal("error body not decoded")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (no retries on definite rejection)", got)
	}
}

// TestRetriesExhausted: a server that never recovers yields the last error
// after MaxRetries+1 attempts.
func TestRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	opts := fastOpts()
	opts.MaxRetries = 3
	c := client.New(ts.URL, opts)
	_, err := c.Submit(context.Background(), "hr", "clear", nil)
	if err == nil {
		t.Fatal("want error after exhausted retries")
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("server saw %d calls, want 4", got)
	}
}

// TestContextCancelStopsRetrying: the parent context cancels the loop
// mid-backoff.
func TestContextCancelStopsRetrying(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	opts := fastOpts()
	opts.BaseBackoff = time.Hour
	opts.MaxBackoff = time.Hour
	c := client.New(ts.URL, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.Submit(ctx, "hr", "clear", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context deadline", err)
	}
}

// dropOnce wraps a handler: the request matching `match` is processed by
// the inner handler (the event IS applied server-side) but the connection
// is killed before a response reaches the client — the classic ambiguous
// failure an idempotency key exists for.
type dropOnce struct {
	inner   http.Handler
	dropped atomic.Bool
}

func (d *dropOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/submit" && d.dropped.CompareAndSwap(false, true) {
		rec := httptest.NewRecorder()
		d.inner.ServeHTTP(rec, r)
		panic(http.ErrAbortHandler) // drop the (already computed) response
	}
	d.inner.ServeHTTP(w, r)
}

// TestIdempotentRetryAfterDroppedResponse is the end-to-end acceptance
// test: the first /submit is fully applied by a durable coordinator but
// its response never reaches the client; the client's automatic retry
// carries the same Idempotency-Key and must receive the ORIGINAL index,
// with exactly one event in the run.
func TestIdempotentRetryAfterDroppedResponse(t *testing.T) {
	co, err := server.NewDurable("Hiring", workload.Hiring(), server.DurabilityConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ts := httptest.NewServer(&dropOnce{inner: server.Handler(co)})
	defer ts.Close()

	c := client.New(ts.URL, fastOpts())
	res, err := c.Submit(context.Background(), "hr", "clear", map[string]string{"x": "sue"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != 0 {
		t.Fatalf("index = %d, want 0 (the original submission's index)", res.Index)
	}
	if c.Retries() == 0 {
		t.Fatal("the dropped response should have forced a retry")
	}
	if got := co.Len(); got != 1 {
		t.Fatalf("run holds %d events, want 1 — the retry double-applied", got)
	}

	// A second clear for the same x is genuinely inapplicable — proving the
	// success above came from the dedupe window, not from rule semantics
	// being accidentally idempotent.
	if _, err := c.Submit(context.Background(), "hr", "clear", map[string]string{"x": "sue"}); err == nil {
		t.Fatal("fresh key + same bindings must be rejected (already cleared)")
	}
}

// TestSubmitIdemExplicitKey: two deliberate submissions with one key
// apply once; the second answer is the cached original.
func TestSubmitIdemExplicitKey(t *testing.T) {
	co, err := server.NewDurable("Hiring", workload.Hiring(), server.DurabilityConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ts := httptest.NewServer(server.Handler(co))
	defer ts.Close()
	c := client.New(ts.URL, fastOpts())

	a, err := c.SubmitIdem(context.Background(), "hr", "clear", map[string]string{"x": "sue"}, "key-1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.SubmitIdem(context.Background(), "hr", "clear", map[string]string{"x": "sue"}, "key-1")
	if err != nil {
		t.Fatal(err)
	}
	if a.Index != b.Index {
		t.Fatalf("replayed index %d != original %d", b.Index, a.Index)
	}
	if got := co.Len(); got != 1 {
		t.Fatalf("run holds %d events, want 1", got)
	}
}

// TestViewExplainCertify drives the read endpoints through the client
// against a live coordinator.
func TestViewExplainCertify(t *testing.T) {
	co := server.New("Hiring", workload.Hiring())
	ts := httptest.NewServer(server.Handler(co))
	defer ts.Close()
	// Certify runs a decider search server-side; under -race it can blow
	// past the 2s fastOpts deadline, and a deadline-triggered retry
	// restarts the whole search. Reads get a generous per-request budget.
	opts := fastOpts()
	opts.RequestTimeout = time.Minute
	c := client.New(ts.URL, opts)
	ctx := context.Background()

	if _, err := c.Submit(ctx, "hr", "clear", map[string]string{"x": "sue"}); err != nil {
		t.Fatal(err)
	}
	v, err := c.View(ctx, "hr")
	if err != nil {
		t.Fatal(err)
	}
	if v == "" {
		t.Fatal("empty view")
	}
	if _, err := c.Explain(ctx, "hr"); err != nil {
		t.Fatal(err)
	}
	if err := c.Certify(ctx, "hr", 3); err != nil {
		t.Fatalf("certify hr: %v", err)
	}
	if err := c.Certify(ctx, "nosuchpeer", 3); err == nil {
		t.Fatal("certify of unknown peer must fail")
	}
	if err := c.Ready(ctx); err != nil {
		t.Fatal(err)
	}
}
