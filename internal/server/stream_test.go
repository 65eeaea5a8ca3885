package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// encoded is what json.NewEncoder(w).Encode(v) writes.
func encoded(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// At every step of a crowdsourcing session whose values need escaping, the
// streamed /transitions (from the start, a tail, past the end) and /view
// bodies equal json.Encoder over the maps TransitionsAndLen and View
// answer with.
func TestStreamedReadsMatchEncoder(t *testing.T) {
	c := New("Crowdsourcing", crowdProgram(t))
	h := Handler(c)
	serve := func(path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Header().Get("Content-Type"))
		}
		return rec.Body.String()
	}
	check := func() {
		for _, peer := range c.prog.Peers() {
			n := c.Len()
			for _, from := range []int{0, n - 3, n} {
				ts, tn, err := c.TransitionsAndLen(peer, from)
				if err != nil {
					t.Fatal(err)
				}
				path := fmt.Sprintf("/transitions?peer=%s&from=%d", peer, from)
				if got, want := serve(path), encoded(t, map[string]any{"transitions": ts, "len": tn}); got != want {
					t.Fatalf("GET %s:\n got %s\nwant %s", path, got, want)
				}
			}
			v, err := c.View(peer)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := serve("/view?peer="+string(peer)), encoded(t, map[string]string{"view": v}); got != want {
				t.Fatalf("GET /view?peer=%s:\n got %s\nwant %s", peer, got, want)
			}
		}
	}
	check()
	driveCrowd(t, c, len(crowdDescs), check)
}

// heapSince returns the live heap after a full collection, less base.
func heapSince(base uint64) uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc - min(ms.HeapAlloc, base)
}

// Polling every peer's /transitions tail after every step of a 1050-event
// crowdsourcing run keeps no view per step: the heap the reads leave behind
// (the memoized row lines) stays within a quarter of the run's own retained
// heap. A cache holding each rendered (step, peer) view keeps tens of
// megabytes here, many times the run itself.
func TestTransitionsTailRetainsNoViews(t *testing.T) {
	const tasks = 150 // 7 events each
	prog := crowdProgram(t)

	base := heapSince(0)
	plain := New("Crowdsourcing", prog)
	driveCrowd(t, plain, tasks, nil)
	own := heapSince(base)
	runtime.KeepAlive(plain)

	base = heapSince(0)
	c := New("Crowdsourcing", prog)
	h := Handler(c)
	peers := c.prog.Peers()
	driveCrowd(t, c, tasks, func() {
		for _, peer := range peers {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/transitions?peer=%s&from=%d", peer, c.Len()-1), nil))
			if rec.Code != 200 {
				t.Fatalf("transitions for %s: %d %s", peer, rec.Code, rec.Body)
			}
		}
	})
	read := heapSince(base)
	runtime.KeepAlive(c)
	if c.Len() < 1000 {
		t.Fatalf("run has %d events, want ≥ 1000", c.Len())
	}
	mb := func(b uint64) float64 { return float64(b) / (1 << 20) }
	t.Logf("%d events: run alone retains %.1f MB; with every peer's tail read at every step, %.1f MB",
		c.Len(), mb(own), mb(read))
	if read > own+own/4 {
		t.Errorf("reads left %.1f MB beyond the run's own %.1f MB, want ≤ %.1f MB (a quarter of it)",
			mb(read-min(read, own)), mb(own), mb(own/4))
	}
}

// writeRecorder is a ResponseWriter that keeps no body: it counts the
// bytes written and the largest single Write.
type writeRecorder struct {
	h          http.Header
	code       int
	n, largest int
}

func (w *writeRecorder) Header() http.Header { return w.h }
func (w *writeRecorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *writeRecorder) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += len(b)
	w.largest = max(w.largest, len(b))
	return len(b), nil
}

// Behind the production handler stack, request deadline included, every
// large read body reaches the ResponseWriter in writes of at most 32 KiB:
// /transitions?from=0 on a 280-event crowdsourcing run, /view and /explain
// on a 4200-event one, each body over 256 KiB. Nothing between the snapshot
// and the socket holds a whole body.
func TestReadBodiesStreamInSmallWrites(t *testing.T) {
	const maxWrite, minBody = 32 << 10, 256 << 10
	check := func(c *Coordinator, paths ...string) {
		h := NewHandler(c, HTTPOptions{RequestTimeout: 30 * time.Second})
		for _, path := range paths {
			rec := &writeRecorder{h: make(http.Header)}
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.code != http.StatusOK {
				t.Fatalf("GET %s: status %d", path, rec.code)
			}
			if rec.n <= minBody {
				t.Fatalf("GET %s: %d-byte body, want > %d for the check to mean anything", path, rec.n, minBody)
			}
			if rec.largest > maxWrite {
				t.Errorf("GET %s: a single %d-byte write of a %d-byte body, want ≤ %d", path, rec.largest, rec.n, maxWrite)
			}
		}
	}
	short := New("Crowdsourcing", crowdProgram(t))
	driveCrowd(t, short, 40, nil)
	check(short, "/transitions?peer=w0&from=0", "/transitions?peer=platform&from=0")

	long := New("Crowdsourcing", crowdProgram(t))
	driveCrowd(t, long, 600, nil)
	check(long, "/view?peer=platform", "/explain?peer=platform", "/explain?peer=w0")
}
