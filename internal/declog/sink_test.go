package declog

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"collabwf/internal/client"
)

func batchOf(n int) []Decision {
	out := make([]Decision, n)
	for i := range out {
		out[i] = Decision{Seq: uint64(i + 1), Kind: KindSubmit, Decision: Accepted, Index: i}
	}
	return out
}

func TestWriterSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewWriterSink(&buf, "stdout")
	if err := s.Export(context.Background(), batchOf(3)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	var d Decision
	if err := json.Unmarshal([]byte(lines[2]), &d); err != nil {
		t.Fatal(err)
	}
	if d.Seq != 3 {
		t.Fatalf("line 3 has seq %d", d.Seq)
	}
	if s.Describe() != "stdout" {
		t.Fatalf("describe=%q", s.Describe())
	}
}

func TestFileSinkAppendsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions.jsonl")
	s, err := NewFileSink(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Export(context.Background(), batchOf(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopening must append, not truncate — a restarted server keeps the
	// audit trail.
	s2, err := NewFileSink(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Export(context.Background(), batchOf(1)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), "\n"); n != 3 {
		t.Fatalf("got %d lines after reopen, want 3", n)
	}
	if err := s2.Export(context.Background(), batchOf(1)); err == nil {
		t.Fatal("export after Close must fail")
	}
}

func TestFileSinkRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.jsonl")
	s, err := NewFileSink(path, FileOptions{MaxBytes: 1, MaxFiles: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Every batch overshoots MaxBytes=1, so every export rotates.
	for i := 0; i < 4; i++ {
		if err := s.Export(context.Background(), batchOf(1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"d.jsonl", "d.jsonl.1", "d.jsonl.2"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Fatalf("missing %s: %v", want, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "d.jsonl.3")); err == nil {
		t.Fatal("rotation must drop files beyond MaxFiles")
	}
}

func TestHTTPSinkUploadsGzippedJSONL(t *testing.T) {
	var got atomic.Pointer[[]Decision]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("content type %q", ct)
		}
		body := io.Reader(r.Body)
		if r.Header.Get("Content-Encoding") == "gzip" {
			zr, err := gzip.NewReader(r.Body)
			if err != nil {
				t.Errorf("bad gzip: %v", err)
				w.WriteHeader(400)
				return
			}
			defer zr.Close()
			body = zr
		} else {
			t.Error("upload not gzipped")
		}
		var recs []Decision
		sc := bufio.NewScanner(body)
		for sc.Scan() {
			var d Decision
			if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
				t.Errorf("bad record: %v", err)
			}
			recs = append(recs, d)
		}
		got.Store(&recs)
	}))
	defer srv.Close()
	s := NewHTTPSink(srv.URL, client.Options{})
	if err := s.Export(context.Background(), batchOf(5)); err != nil {
		t.Fatal(err)
	}
	recs := got.Load()
	if recs == nil || len(*recs) != 5 {
		t.Fatalf("server decoded %v", recs)
	}
	if (*recs)[4].Index != 4 {
		t.Fatalf("order lost: %+v", (*recs)[4])
	}
}

func TestHTTPSinkRetriesTemporaryFailures(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
	}))
	defer srv.Close()
	s := NewHTTPSink(srv.URL, client.Options{
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		Rand: rand.New(rand.NewSource(1)),
	})
	if err := s.Export(context.Background(), batchOf(1)); err != nil {
		t.Fatalf("retryable failures must be retried: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d attempts, want 3", calls.Load())
	}
}

func TestHTTPSinkDoesNotRetryDefiniteFailures(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer srv.Close()
	s := NewHTTPSink(srv.URL, client.Options{BaseBackoff: time.Millisecond})
	if err := s.Export(context.Background(), batchOf(1)); err == nil {
		t.Fatal("definite 4xx must fail")
	}
	if calls.Load() != 1 {
		t.Fatalf("4xx retried: %d attempts", calls.Load())
	}
}

func TestHTTPSinkGivesUpAfterMaxRetries(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()
	s := NewHTTPSink(srv.URL, client.Options{
		MaxRetries: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		Rand: rand.New(rand.NewSource(1)),
	})
	err := s.Export(context.Background(), batchOf(1))
	if err == nil {
		t.Fatal("exhausted retries must surface an error")
	}
	if !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("err=%v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d attempts, want 1+2 retries", calls.Load())
	}
}

func TestHTTPSinkHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var gap atomic.Int64
	var last atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now().UnixNano()
		if prev := last.Swap(now); prev != 0 {
			gap.Store(now - prev)
		}
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		}
	}))
	defer srv.Close()
	s := NewHTTPSink(srv.URL, client.Options{
		BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Second,
		Rand: rand.New(rand.NewSource(1)),
	})
	if err := s.Export(context.Background(), batchOf(1)); err != nil {
		t.Fatal(err)
	}
	if d := time.Duration(gap.Load()); d < 900*time.Millisecond {
		t.Fatalf("Retry-After: 1 not honored, retried after %v", d)
	}
}

func TestHTTPSinkContextCancellation(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()
	s := NewHTTPSink(srv.URL, client.Options{
		MaxRetries: 100, BaseBackoff: 50 * time.Millisecond,
		Rand: rand.New(rand.NewSource(1)),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Export(ctx, batchOf(1))
	if err == nil {
		t.Fatal("cancelled export must fail")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation did not interrupt the retry loop")
	}
}

func ExampleDigest() {
	fmt.Println(Digest("why is the run like this?"))
	// Output: 92cdc956b96dfa29
}
