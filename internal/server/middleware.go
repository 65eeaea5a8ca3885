package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"collabwf/internal/obs"
)

// statusWriter records the first status code a handler set, so observe
// can classify the response.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so streaming handlers keep
// working behind the instrumentation; a flush commits the implicit 200.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		if w.status == 0 {
			w.status = http.StatusOK
		}
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController, which
// recovers Hijack/SetDeadline and friends through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter {
	return w.ResponseWriter
}

// statusClass buckets a status code into its Prometheus label class.
func statusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// observe wraps one route with everything the server records about a
// request, each part skipped when its sink is nil (all nil returns next
// unchanged, so an unobserved server pays nothing):
//
//   - tracer: an "http <route>" span covering the whole request — the root
//     of the request's trace, or a child of a remote trace joined via the
//     W3C traceparent header. It is started first, so the exemplar and the
//     log line below carry its trace id, and it ends even when the handler
//     panics (Recovery sits outside), marked failed before the panic
//     continues.
//   - metrics: the per-route request count by status class, the in-flight
//     gauge, and the latency histogram with the trace id as exemplar.
//   - logger: one access-log line per completed request with route,
//     method, status, duration and client address; debug level, warn for
//     5xx.
func observe(t *obs.Tracer, m *Metrics, l *slog.Logger, route string, next http.Handler) http.Handler {
	if t == nil && m == nil && l == nil {
		return next
	}
	var latency *obs.Histogram
	if m != nil {
		latency = m.httpLatency.With(route)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var sp *obs.Span
		if t != nil {
			ctx := obs.ContextWithTracer(r.Context(), t)
			if traceID, spanID, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
				ctx = obs.ContextWithRemoteParent(ctx, traceID, spanID)
			}
			ctx, sp = obs.StartSpan(ctx, "http "+route)
			sp.SetAttr("method", r.Method)
			sp.SetAttr("remote", r.RemoteAddr)
			r = r.WithContext(ctx)
		}
		if m != nil {
			m.httpInFlight.Inc()
			defer m.httpInFlight.Dec()
		}
		if sp != nil {
			defer func() {
				if v := recover(); v != nil {
					sp.SetError(fmt.Errorf("panic: %v", v))
					sp.SetAttr("status", http.StatusInternalServerError)
					sp.End()
					panic(v)
				}
			}()
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		code := sw.status
		if code == 0 {
			code = http.StatusOK
		}
		if m != nil {
			m.httpRequests.With(route, statusClass(code)).Inc()
			latency.ObserveExemplar(elapsed.Seconds(), obs.SpanFrom(r.Context()).TraceID())
		}
		if l != nil {
			lvl := slog.LevelDebug
			if code >= 500 {
				lvl = slog.LevelWarn
			}
			l.Log(r.Context(), lvl, "request",
				slog.String("route", route), slog.String("method", r.Method),
				slog.Int("status", code), slog.Duration("duration", elapsed),
				slog.String("remote", r.RemoteAddr))
		}
		sp.SetAttr("status", code)
		if code >= 500 {
			sp.SetError(fmt.Errorf("HTTP %d", code))
		}
		sp.End()
	})
}

// Admission bounds how many requests may be past it concurrently: with
// `limit` in flight, the next request is shed immediately with HTTP 429 and
// a Retry-After hint instead of convoying behind the coordinator lock (and
// the group-commit queue) unboundedly. retryAfter supplies the hint in
// seconds (nil means a constant 1) — wire Coordinator.RetryAfterHint so the
// hint tracks the commit backlog instead of lying to backed-off clients.
// Shed requests are counted on the wf_admission_shed_total family. limit
// ≤ 0 returns next unchanged.
func Admission(m *Metrics, limit int, retryAfter func() int, next http.Handler) http.Handler {
	if limit <= 0 {
		return next
	}
	slots := make(chan struct{}, limit)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case slots <- struct{}{}:
			defer func() { <-slots }()
			next.ServeHTTP(w, r)
		default:
			m.shed()
			hint := 1
			if retryAfter != nil {
				hint = retryAfter()
			}
			w.Header().Set("Retry-After", strconv.Itoa(hint))
			httpError(w, http.StatusTooManyRequests,
				fmt.Errorf("overloaded: %d submissions in flight, retry later", limit))
		}
	})
}

// Recovery turns a handler panic into a 500 JSON error instead of killing
// the serving goroutine's connection (and, for panics escaping ServeHTTP
// in other setups, the process). http.ErrAbortHandler is re-panicked per
// its contract.
func Recovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler {
					panic(v)
				}
				httpError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// WithTimeout bounds the time to a response's first byte: the handler runs
// on its own goroutine with a d deadline on its context, and its headers
// are held until its first Write or WriteHeader. If it has written nothing
// by the deadline, the client gets a 503 JSON error and the handler's later
// writes fail with http.ErrHandlerTimeout. A response already started when
// the deadline passes completes — a 503 can no longer be sent — and its
// body passes straight through: nothing is buffered. A handler panic is
// re-raised on the caller's goroutine, so Recovery still answers it. d ≤ 0
// disables the bound.
func WithTimeout(d time.Duration, next http.Handler) http.Handler {
	if d <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		// The timeout response is JSON like every other response; a handler's
		// own Content-Type replaces this one when its response starts.
		w.Header().Set("Content-Type", "application/json")
		dw := &deadlineWriter{w: w, h: make(http.Header)}
		done := make(chan struct{})
		panicked := make(chan any, 1) // the handler goroutine never blocks on it
		go func() {
			defer func() {
				if v := recover(); v != nil {
					panicked <- v
				}
			}()
			next.ServeHTTP(dw, r.WithContext(ctx))
			close(done)
		}()
		expired := ctx.Done()
		for {
			select {
			case v := <-panicked:
				panic(v)
			case <-done:
				dw.WriteHeader(http.StatusOK) // a handler that wrote nothing
				return
			case <-expired:
				if dw.expire(ctx.Err()) {
					return
				}
				expired = nil // the response started before the deadline: let it finish
			}
		}
	})
}

// deadlineWriter is WithTimeout's pass-through writer: it holds the
// handler's headers until the response starts, then forwards every write to
// the underlying writer as it comes.
type deadlineWriter struct {
	w http.ResponseWriter
	h http.Header

	mu      sync.Mutex
	started bool
	// err is set when the deadline (or the client) ended the request before
	// the response started; every later write returns it.
	err error
}

func (dw *deadlineWriter) Header() http.Header { return dw.h }

// startLocked sends the held headers with the status code, once, unless
// the request has expired; it reports whether the handler may still write.
func (dw *deadlineWriter) startLocked(code int) bool {
	if dw.err != nil {
		return false
	}
	if !dw.started {
		dst := dw.w.Header()
		for k, vv := range dw.h {
			dst[k] = vv
		}
		dw.started = true
		dw.w.WriteHeader(code)
	}
	return true
}

func (dw *deadlineWriter) WriteHeader(code int) {
	dw.mu.Lock()
	defer dw.mu.Unlock()
	dw.startLocked(code)
}

func (dw *deadlineWriter) Write(b []byte) (int, error) {
	dw.mu.Lock()
	defer dw.mu.Unlock()
	if !dw.startLocked(http.StatusOK) {
		return 0, dw.err
	}
	return dw.w.Write(b)
}

// Flush forwards to the underlying writer; a flush starts the response.
func (dw *deadlineWriter) Flush() {
	dw.mu.Lock()
	defer dw.mu.Unlock()
	if !dw.startLocked(http.StatusOK) {
		return
	}
	if f, ok := dw.w.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (dw *deadlineWriter) Unwrap() http.ResponseWriter { return dw.w }

// expire ends a request whose context is done, unless its response has
// started: a missed deadline answers 503 with the JSON error, a client that
// went away a bare 503. It reports whether the request was ended.
func (dw *deadlineWriter) expire(cause error) bool {
	dw.mu.Lock()
	defer dw.mu.Unlock()
	if dw.started {
		return false
	}
	dw.w.WriteHeader(http.StatusServiceUnavailable)
	if cause == context.DeadlineExceeded {
		_, _ = io.WriteString(dw.w, `{"error":"request timed out"}`) // a failed write means the client left
		cause = http.ErrHandlerTimeout
	}
	dw.err = cause
	return true
}
