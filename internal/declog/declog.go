// Package declog is the decision-log pipeline: a bounded, batched,
// non-blocking export stream of every decision the coordinator makes —
// submission verdicts (accepted, or rejected with the guard's reason),
// certification runs (bound, verdict, search effort), explanation requests
// (with a digest of the served report), guard installations and recoveries
// — each stamped with the request's trace id, the peer, the run position
// and wall time. The paper's subject is explaining workflow runs to peers;
// the decision log applies the same standard across time: where /explain
// answers "why is the run like this now?", the log answers "what did the
// server decide, and why, for every request it ever saw" — and stays
// auditable after the fact (Audit replays a log file and cross-checks every
// recomputable verdict).
//
// The pipeline is OPA-shaped (buffer → batch → upload, with an explicit
// drop policy): Emit appends to a ring that grows on demand up to a fixed
// capacity and never blocks the coordinator — when the ring holds capacity
// records the oldest one is dropped and counted (wf_declog_dropped_total).
// A flusher goroutine exports batches through a pluggable Sink when a full
// batch accumulates or the flush interval elapses, whichever is first.
// Delivery is at-most-once per batch: a batch whose export fails (after
// the sink's own bounded retries) is counted and discarded, never retried
// from the logger — the coordinator must not accumulate unbounded audit
// backlog, and the WAL, not the decision log, is the durability story.
package declog

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"log/slog"
	"sync"
	"time"

	"collabwf/internal/obs"
)

// Decision kinds: which operation the record describes.
const (
	KindSubmit  = "submit"
	KindCertify = "certify"
	KindExplain = "explain"
	KindGuard   = "guard"
	KindRecover = "recover"
)

// Decision outcomes.
const (
	// Accepted / Rejected are submission verdicts; Replayed is a submission
	// answered from the idempotency window without re-applying its event.
	Accepted = "accepted"
	Rejected = "rejected"
	Replayed = "replayed"
	// Certified / Violation are certification verdicts; Errored covers a
	// failed or cancelled decider run (Reason says which).
	Certified = "certified"
	Violation = "violation"
	Errored   = "error"
	// Served is a successfully answered explanation request.
	Served = "served"
	// Installed is a guard installation; Recovered a completed recovery.
	Installed = "installed"
	Recovered = "recovered"
)

// SearchStats carries the decider search effort of one certification, the
// same counters wf_decider_* aggregates (transparency.Stats' wire twin;
// declog keeps its own struct so log records decode without that package).
type SearchStats struct {
	Nodes       int64 `json:"nodes"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	States      int64 `json:"states"`
	Workers     int   `json:"workers"`
}

// Decision is one decision-log record. Seq and Time are stamped by Emit;
// everything else is the emitter's statement of what was decided and why.
type Decision struct {
	// Seq orders records within one logger's lifetime (1-based, gap-free
	// at emit time; a drop-oldest under overload leaves gaps in the sink).
	Seq uint64 `json:"seq"`
	// Time is the wall time of the decision.
	Time time.Time `json:"time"`
	// Workflow names the coordinator's program.
	Workflow string `json:"workflow,omitempty"`
	// Run identifies the workflow instance (shard) within a run fleet that
	// made the decision; empty for the classic single-run server. Audits
	// partition the stream by this field before replaying.
	Run string `json:"run,omitempty"`
	// Kind is the operation (submit, certify, explain, guard, recover).
	Kind string `json:"kind"`
	// Decision is the verdict (accepted, rejected, replayed, certified,
	// violation, error, served, installed, recovered).
	Decision string `json:"decision"`
	// Reason is the machine-readable cause, aligned with the
	// wf_submissions_rejected_total taxonomy for submissions (closed,
	// unknown_rule, wrong_peer, not_applicable, guard, wal).
	Reason string `json:"reason,omitempty"`
	// Detail is the human-readable cause (guard monitor reason, error text).
	Detail string `json:"detail,omitempty"`
	// TraceID links the record to the flight recorder's retained trace.
	TraceID string `json:"trace_id,omitempty"`
	// Peer is the requesting peer (for guard rejections, see Guarded).
	Peer string `json:"peer,omitempty"`
	// Rule is the fired (or attempted) rule of a submission.
	Rule string `json:"rule,omitempty"`
	// Valuation is the event's full valuation (accepted and guard- or
	// applicability-rejected submissions), in the trace wire encoding.
	Valuation map[string]string `json:"valuation,omitempty"`
	// Index is the event's run position for accepted/replayed submissions;
	// -1 otherwise.
	Index int `json:"index"`
	// RunLen is the run length the decision was made against: the length
	// before the event for submissions, the released prefix length for
	// explanations, the recovered length for recoveries.
	RunLen int `json:"run_len"`
	// H is the step budget of a certification or guard installation.
	H int `json:"h,omitempty"`
	// IdemKey is the submission's idempotency key, if any.
	IdemKey string `json:"idem_key,omitempty"`
	// Guarded names the guarded peer whose monitor rejected the submission.
	Guarded string `json:"guarded,omitempty"`
	// DurationNS is the server-side latency of the decision, when measured.
	DurationNS int64 `json:"duration_ns,omitempty"`
	// Digest fingerprints the explanation report served (FNV-1a of its
	// rendered text), so an audit can recompute and compare.
	Digest string `json:"digest,omitempty"`
	// Search is the decider effort of a certification.
	Search *SearchStats `json:"search,omitempty"`
}

// Digest fingerprints a rendered report (or any deterministic text) the way
// explain records do: FNV-1a, hex.
func Digest(text string) string {
	h := NewDigest()
	_, _ = h.Write([]byte(text))
	return DigestSum(h)
}

// NewDigest returns the hash Digest applies, for text that is written in
// pieces; DigestSum renders its fingerprint.
func NewDigest() hash.Hash64 { return fnv.New64a() }

// DigestSum renders h's sum as Digest does.
func DigestSum(h hash.Hash64) string { return fmt.Sprintf("%016x", h.Sum64()) }

// Config tunes a Logger.
type Config struct {
	// Sink receives exported batches. Required. The logger owns it: Close
	// closes the sink after the final drain.
	Sink Sink
	// Capacity bounds the emit queue; a full queue drops its oldest record
	// per emit (counted). ≤ 0 means 4096.
	Capacity int
	// BatchSize is the export batch bound; a full batch wakes the flusher
	// immediately. ≤ 0 means 128.
	BatchSize int
	// FlushInterval bounds how long a partial batch waits. ≤ 0 means 1s.
	FlushInterval time.Duration
	// Registry, when non-nil, registers the wf_declog_* families.
	Registry *obs.Registry
	// Logger, when non-nil, reports export failures through the "declog"
	// subsystem.
	Logger *slog.Logger
}

// pipeMetrics is the registered wf_declog_* surface (nil when no registry).
type pipeMetrics struct {
	emitted  obs.CounterVec // kind
	dropped  *obs.Counter
	batches  *obs.Counter
	failures *obs.Counter
	latency  *obs.Histogram
	depth    *obs.Gauge
}

func newPipeMetrics(reg *obs.Registry) *pipeMetrics {
	return &pipeMetrics{
		emitted: reg.CounterVec("wf_declog_emitted_total",
			"Decision records emitted into the log queue, by kind (submit, certify, explain, guard, recover).", "kind"),
		dropped: reg.Counter("wf_declog_dropped_total",
			"Decision records dropped by the full queue's drop-oldest policy."),
		batches: reg.Counter("wf_declog_batches_total",
			"Decision-log batches exported through the sink."),
		failures: reg.Counter("wf_declog_export_failures_total",
			"Decision-log batches discarded after a failed export (at-most-once delivery)."),
		latency: reg.Histogram("wf_declog_upload_latency_seconds",
			"Decision-log batch export latency in seconds (includes the sink's internal retries).", nil),
		depth: reg.Gauge("wf_declog_queue_depth",
			"Decision records queued and awaiting export."),
	}
}

// Logger is the non-blocking decision-log pipeline. Safe for concurrent
// use; Emit never blocks on the sink.
type Logger struct {
	sink     Sink
	batch    int
	interval time.Duration
	log      *slog.Logger
	m        *pipeMetrics

	mu sync.Mutex
	// buf is the queue, a ring of n records from head. It starts empty and
	// doubles when full, up to capacity records; at capacity the oldest
	// record is dropped instead.
	buf      []Decision
	head     int
	n        int
	capacity int
	seq      uint64
	closed   bool
	// status counters (mirrored on the registry when one is wired, but kept
	// here too so Status works without one).
	emittedN, droppedN, batchesN, failuresN, failedRecs uint64
	lastErr                                             string
	lastExport                                          time.Time

	// exportMu serializes sink exports (the flusher vs an explicit Flush).
	exportMu sync.Mutex

	wake    chan struct{}
	done    chan struct{}
	stopped chan struct{}
	closeFn sync.Once
}

// New starts a logger and its flusher goroutine.
func New(cfg Config) (*Logger, error) {
	if cfg.Sink == nil {
		return nil, fmt.Errorf("declog: Config.Sink is required")
	}
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = 4096
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 128
	}
	if batch > capacity {
		batch = capacity
	}
	interval := cfg.FlushInterval
	if interval <= 0 {
		interval = time.Second
	}
	l := &Logger{
		sink:     cfg.Sink,
		batch:    batch,
		interval: interval,
		log:      obs.Discard(),
		capacity: capacity,
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		stopped:  make(chan struct{}),
	}
	if cfg.Logger != nil {
		l.log = obs.Sub(cfg.Logger, "declog")
	}
	if cfg.Registry != nil {
		l.m = newPipeMetrics(cfg.Registry)
	}
	go l.run()
	return l, nil
}

// Emit enqueues one record, stamping its sequence number and (when unset)
// wall time. Never blocks: a full queue drops its oldest record instead.
// Nil-safe and a no-op after Close.
func (l *Logger) Emit(d Decision) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.seq++
	d.Seq = l.seq
	if d.Time.IsZero() {
		d.Time = time.Now()
	}
	if l.n == l.capacity {
		// Drop-oldest: audit freshness beats audit completeness under
		// overload, and the drop is counted, never silent.
		l.head = (l.head + 1) % len(l.buf)
		l.n--
		l.droppedN++
		if l.m != nil {
			l.m.dropped.Inc()
		}
	} else if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)%len(l.buf)] = d
	l.n++
	l.emittedN++
	depth, full := l.n, l.n >= l.batch
	m := l.m
	l.mu.Unlock()
	if m != nil {
		m.emitted.With(d.Kind).Inc()
		m.depth.Set(float64(depth))
	}
	if full {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
}

// grow doubles the full ring's room, up to the capacity, keeping the
// records in order. Called with mu held.
func (l *Logger) grow() {
	buf := make([]Decision, min(max(2*len(l.buf), 16), l.capacity))
	n := copy(buf, l.buf[l.head:])
	copy(buf[n:], l.buf[:l.head])
	l.buf, l.head = buf, 0
}

// takeBatch removes and returns up to l.batch queued records.
func (l *Logger) takeBatch() []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.n
	if n == 0 {
		return nil
	}
	if n > l.batch {
		n = l.batch
	}
	out := make([]Decision, n)
	for i := 0; i < n; i++ {
		j := (l.head + i) % len(l.buf)
		out[i] = l.buf[j]
		l.buf[j] = Decision{} // the exported record is the batch's now
	}
	l.head = (l.head + n) % len(l.buf)
	l.n -= n
	if l.m != nil {
		l.m.depth.Set(float64(l.n))
	}
	return out
}

// export ships one batch through the sink, recording latency and outcome.
func (l *Logger) export(ctx context.Context, batch []Decision) {
	l.exportMu.Lock()
	defer l.exportMu.Unlock()
	start := time.Now()
	err := l.sink.Export(ctx, batch)
	elapsed := time.Since(start)
	l.mu.Lock()
	l.lastExport = time.Now()
	if err != nil {
		l.failuresN++
		l.failedRecs += uint64(len(batch))
		l.lastErr = err.Error()
	} else {
		l.batchesN++
		l.lastErr = ""
	}
	l.mu.Unlock()
	if l.m != nil {
		l.m.latency.Observe(elapsed.Seconds())
		if err != nil {
			l.m.failures.Inc()
		} else {
			l.m.batches.Inc()
		}
	}
	if err != nil {
		l.log.Warn("decision-log batch discarded after failed export",
			slog.Int("records", len(batch)), slog.Any("error", err))
	}
}

// run is the flusher: full batches export immediately (wake), partial ones
// at the flush interval; shutdown drains whatever remains.
func (l *Logger) run() {
	defer close(l.stopped)
	t := time.NewTicker(l.interval)
	defer t.Stop()
	for {
		select {
		case <-l.done:
			l.drain(context.Background())
			return
		case <-l.wake:
			for {
				l.mu.Lock()
				full := l.n >= l.batch
				l.mu.Unlock()
				if !full {
					break
				}
				if b := l.takeBatch(); len(b) > 0 {
					l.export(context.Background(), b)
				}
			}
		case <-t.C:
			l.drain(context.Background())
		}
	}
}

// drain exports every queued record, in batches.
func (l *Logger) drain(ctx context.Context) {
	for {
		b := l.takeBatch()
		if len(b) == 0 {
			return
		}
		l.export(ctx, b)
	}
}

// Flush synchronously exports everything queued right now. Useful before a
// deliberate crash (the chaos harness models the drain a SIGTERM performs)
// and in tests; the flusher keeps running.
func (l *Logger) Flush(ctx context.Context) {
	if l == nil {
		return
	}
	l.drain(ctx)
}

// Close stops the flusher, drains the queue and closes the sink.
// Idempotent; Emit is a no-op afterwards.
func (l *Logger) Close(ctx context.Context) error {
	if l == nil {
		return nil
	}
	var err error
	l.closeFn.Do(func() {
		close(l.done)
		<-l.stopped
		l.mu.Lock()
		l.closed = true
		l.mu.Unlock()
		l.drain(ctx) // records that raced the closed flag
		err = l.sink.Close()
	})
	return err
}

// Status is the point-in-time pipeline summary for /statusz.
type Status struct {
	Sink           string `json:"sink"`
	QueueDepth     int    `json:"queue_depth"`
	Capacity       int    `json:"capacity"`
	BatchSize      int    `json:"batch_size"`
	Emitted        uint64 `json:"emitted"`
	Dropped        uint64 `json:"dropped"`
	Batches        uint64 `json:"batches"`
	ExportFailures uint64 `json:"export_failures"`
	FailedRecords  uint64 `json:"failed_records"`
	LastError      string `json:"last_error,omitempty"`
	LastExport     string `json:"last_export,omitempty"`
}

// Status reports the pipeline's counters. Nil-safe (returns nil).
func (l *Logger) Status() *Status {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st := &Status{
		Sink:           l.sink.Describe(),
		QueueDepth:     l.n,
		Capacity:       l.capacity,
		BatchSize:      l.batch,
		Emitted:        l.emittedN,
		Dropped:        l.droppedN,
		Batches:        l.batchesN,
		ExportFailures: l.failuresN,
		FailedRecords:  l.failedRecs,
		LastError:      l.lastErr,
	}
	if !l.lastExport.IsZero() {
		st.LastExport = l.lastExport.Format(time.RFC3339Nano)
	}
	return st
}
