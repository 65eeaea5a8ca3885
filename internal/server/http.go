package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"collabwf/internal/core"
	"collabwf/internal/data"
	"collabwf/internal/obs"
	"collabwf/internal/prof"
	"collabwf/internal/schema"
)

// HTTPOptions tunes the graceful-degradation envelope around the API.
type HTTPOptions struct {
	// RequestTimeout bounds each request (503 on expiry); ≤ 0 disables.
	RequestTimeout time.Duration
	// MaxBodyBytes caps the /submit request body; ≤ 0 means 1 MiB.
	MaxBodyBytes int64
	// Metrics, when non-nil, instruments every route (request count by
	// status class, in-flight gauge, latency histogram) and adds the
	// /metrics (Prometheus text) and /statusz (JSON summary) endpoints.
	Metrics *Metrics
	// Logger, when non-nil, enables request-scoped access logging through
	// the "http" subsystem.
	Logger *slog.Logger
	// Tracer, when non-nil, wraps every route in a request span (joining a
	// remote trace when the client sent a W3C traceparent header), so the
	// flight recorder retains the full HTTP → coordinator → WAL span tree.
	Tracer *obs.Tracer
	// MaxInFlight caps concurrent /submit requests: excess load is shed
	// immediately with 429 + Retry-After instead of convoying on the
	// coordinator lock. ≤ 0 disables the cap.
	MaxInFlight int
}

const defaultMaxBody = 1 << 20

// Handler exposes a Coordinator as a JSON HTTP API with default options:
//
//	POST /submit        {"peer": "hr", "rule": "clear", "bindings": {"x": "sue"}}
//	GET  /view?peer=p
//	GET  /explain?peer=p
//	GET  /scenario?peer=p
//	GET  /transitions?peer=p&from=0
//	GET  /trace
//	GET  /certify?peer=p&h=3   run the static deciders (h-boundedness,
//	                           then transparency) for the peer
//	GET  /healthz       liveness: the process serves requests
//	GET  /readyz        readiness: recovery complete and the WAL writable
//
// Every response is JSON; errors use {"error": "..."} with a 4xx/5xx
// status. Malformed request bodies get 400; submissions the coordinator
// rejects (guard violations, inapplicable rules, WAL failures) get 409.
// Handlers are wrapped in panic recovery; see NewHandler for timeouts and
// body-size caps.
func Handler(c *Coordinator) http.Handler {
	return NewHandler(c, HTTPOptions{})
}

// NewHandler is Handler with explicit options.
func NewHandler(c *Coordinator, opts HTTPOptions) http.Handler {
	maxBody := opts.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = defaultMaxBody
	}
	httpLog := obs.Sub(opts.Logger, "http")
	if opts.Logger == nil {
		httpLog = nil
	}
	mux := http.NewServeMux()
	// handle wraps every route with the tracing, instrumentation and
	// access-log middleware (all no-ops when unconfigured). Trace sits
	// outermost so the inner layers see the request span in the context:
	// Instrument attaches its trace id to the latency exemplar and
	// AccessLog's line carries it via the trace-aware slog handler.
	// Liveness/readiness probes are instrumented and logged but NOT traced:
	// a kubelet polling /healthz every few seconds would otherwise evict
	// every interesting submit/certify trace from the bounded flight
	// recorder.
	probes := map[string]bool{"/healthz": true, "/readyz": true}
	handle := func(route string, h http.HandlerFunc) {
		var wrapped http.Handler = Instrument(opts.Metrics, route, AccessLog(httpLog, route, h))
		if !probes[route] {
			wrapped = Trace(opts.Tracer, route, wrapped)
		}
		mux.Handle(route, wrapped)
	}
	// Admission sits innermost on /submit so a shed request is still
	// traced, logged and counted (as a 4xx) like any other response.
	handle("/submit", Admission(opts.Metrics, opts.MaxInFlight, c.RetryAfterHint, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
			return
		}
		var req struct {
			Peer     string            `json:"peer"`
			Rule     string            `json:"rule"`
			Bindings map[string]string `json:"bindings"`
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			httpError(w, status, fmt.Errorf("bad request body: %w", err))
			return
		}
		// A body with trailing garbage after the JSON object is malformed,
		// not a second request.
		if dec.More() {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: trailing data"))
			return
		}
		bindings := make(map[string]data.Value, len(req.Bindings))
		for k, v := range req.Bindings {
			bindings[k] = data.Value(v)
		}
		res, err := c.SubmitIdemCtx(r.Context(), schema.Peer(req.Peer), req.Rule, bindings,
			r.Header.Get("Idempotency-Key"))
		if err != nil {
			// Retry-safe failures (not durable, crash-ambiguous, shutting
			// down) are 503 + Retry-After; definite rejections stay 409.
			if errors.Is(err, ErrUnavailable) {
				w.Header().Set("Retry-After", strconv.Itoa(c.RetryAfterHint()))
				httpError(w, http.StatusServiceUnavailable, err)
				return
			}
			httpError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, res)
	})).ServeHTTP)

	handle("/view", func(w http.ResponseWriter, r *http.Request) {
		peer := peerParam(r)
		s, err := c.readSnapshot(peer)
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		streamJSON(w, func(bw *bufio.Writer) { s.writeViewJSON(bw, peer) })
	})

	handle("/explain", func(w http.ResponseWriter, r *http.Request) {
		rep, text, err := c.ExplainCtx(r.Context(), peerParam(r))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, map[string]any{"report": rep, "text": text})
	})

	handle("/scenario", func(w http.ResponseWriter, r *http.Request) {
		seq, err := c.Scenario(peerParam(r))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, map[string]any{"events": seq})
	})

	handle("/transitions", func(w http.ResponseWriter, r *http.Request) {
		from := 0
		if f := r.URL.Query().Get("from"); f != "" {
			n, err := strconv.Atoi(f)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad from: %v", err))
				return
			}
			from = n
		}
		// One snapshot answers both fields, so the (transitions, len) pair is
		// mutually consistent even while releases race the poll.
		peer := peerParam(r)
		s, err := c.readSnapshot(peer)
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		streamJSON(w, func(bw *bufio.Writer) { s.writeTransitionsJSON(bw, peer, from) })
	})

	handle("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := c.Trace().Write(w); err != nil {
			httpError(w, http.StatusInternalServerError, err)
		}
	})

	handle("/certify", func(w http.ResponseWriter, r *http.Request) {
		h := 0
		if hs := r.URL.Query().Get("h"); hs != "" {
			n, err := strconv.Atoi(hs)
			if err != nil || n < 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad h: %q", hs))
				return
			}
			h = n
		}
		// profile=1 attaches a per-request evaluation profiler to the
		// decider searches and returns its cost snapshot alongside the
		// verdict (EXPLAIN ANALYZE for certification). The profiler is
		// request-scoped, so concurrent certifications don't mix numbers.
		var profiler *prof.Profiler
		switch ps := r.URL.Query().Get("profile"); ps {
		case "", "0", "false":
		case "1", "true":
			profiler = prof.New()
		default:
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad profile: %q", ps))
			return
		}
		peer := peerParam(r)
		if err := c.Certify(r.Context(), peer, h, core.Options{Profiler: profiler}); err != nil {
			if profiler.Enabled() {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusConflict)
				_ = json.NewEncoder(w).Encode(map[string]any{
					"error": err.Error(), "profile": profiler.Snapshot(),
				})
				return
			}
			httpError(w, http.StatusConflict, err)
			return
		}
		resp := map[string]any{"peer": peer, "h": h, "certified": true}
		if profiler.Enabled() {
			resp["profile"] = profiler.Snapshot()
		}
		writeJSON(w, resp)
	})

	handle("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]string{"status": "ok"})
	})

	handle("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if err := c.Ready(); err != nil {
			httpError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeJSON(w, map[string]any{"status": "ready", "events": c.Len(), "durable": c.Durable()})
	})

	// Observability endpoints (registered only when a registry is wired):
	// /metrics serves the Prometheus text format; /statusz a human-oriented
	// JSON summary. Neither is instrumented — a scraper should not move the
	// latency histograms it is reading.
	if opts.Metrics != nil {
		mux.Handle("/metrics", obs.MetricsHandler(opts.Metrics.Registry()))
		mux.Handle("/statusz", StatuszHandler(c))
	}

	return Recovery(WithTimeout(opts.RequestTimeout, mux))
}

func peerParam(r *http.Request) schema.Peer {
	return schema.Peer(r.URL.Query().Get("peer"))
}

// streamBufs recycles the buffered writers streamJSON puts in front of a
// response.
var streamBufs = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 32<<10) }}

// streamJSON sends the body that write produces through a pooled buffered
// writer: a large view goes out in buffer-sized writes, and no copy of the
// whole response is ever built.
func streamJSON(w http.ResponseWriter, write func(*bufio.Writer)) {
	w.Header().Set("Content-Type", "application/json")
	bw := streamBufs.Get().(*bufio.Writer)
	bw.Reset(w)
	write(bw)
	_ = bw.Flush() // a failed write means the client left; there is nobody to tell
	bw.Reset(nil)
	streamBufs.Put(bw)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
