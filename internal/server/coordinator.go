// Package server implements the master-server architecture sketched in the
// paper's conclusion: a coordinator "that has access to all the
// information, receives the updates, propagates them to appropriate peers,
// and controls transparency and boundedness for certain peers."
//
// The Coordinator serializes concurrent peer submissions into a single
// global run, maintains every peer's incremental explanations, tells each
// peer the transitions visible to it (each with its faithful explanation)
// through one change feed — a lock-free published snapshot that listeners
// Wait on and poll with Transitions — and, for guarded peers, rejects
// submissions that would make the run non-transparent or exceed the step
// budget. An HTTP façade (Handler) exposes the same operations as a JSON
// API.
//
// A coordinator is configured once, at construction: NewDurable builds it
// from a DurabilityConfig — its data directory (none = in memory), run id,
// logger, decision log, idempotency window, metric registry, the guards of
// a fresh run and the rule-engine profiler — and New is the zero-config
// in-memory shorthand. Nothing of that changes while the coordinator
// serves. A Manager builds one coordinator per run from a shared template.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"collabwf/internal/core"
	"collabwf/internal/data"
	"collabwf/internal/declog"
	"collabwf/internal/design"
	"collabwf/internal/obs"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/trace"
	"collabwf/internal/transparency"
	"collabwf/internal/wal"
)

// Notification tells a peer about one transition visible to it: one
// (label, view) element of its run view (Definition 3.1), with the event's
// faithful explanation.
type Notification struct {
	// Index is the event's position in the global run.
	Index int `json:"index"`
	// Omega is true when another peer performed the event.
	Omega bool `json:"omega"`
	// Rule names the fired rule (own events only; hidden behind ω
	// otherwise — the peer learns exactly what its run view shows).
	Rule string `json:"rule,omitempty"`
	// View renders the peer's view after the transition.
	View string `json:"view"`
	// Because lists the indices of the events in the faithful explanation
	// of this transition (excluding the transition itself).
	Because []int `json:"because,omitempty"`
}

// ErrUnavailable tags submission failures that are safe to retry: the
// event is not observable — either its record never reached disk (write
// failure, failed group sync, shed by shutdown) or, after a crash, its
// durability is unknown and the idempotency window will dedupe the retry.
// The HTTP layer maps it to 503 + Retry-After; definite rejections (guard
// violations, inapplicable rules) stay 409.
var ErrUnavailable = errors.New("server: temporarily unavailable")

// SubmitResult describes an accepted submission.
type SubmitResult struct {
	// Index is the event's position in the global run.
	Index int `json:"index"`
	// Updates renders the applied ground updates.
	Updates []string `json:"updates"`
	// VisibleAt lists the peers that observed the transition.
	VisibleAt []string `json:"visibleAt"`
}

// Coordinator is the thread-safe master server for one workflow program.
type Coordinator struct {
	mu sync.Mutex

	name string
	// runID identifies this coordinator's workflow instance within a run
	// fleet ("" for the classic single-run server); it is the Run field of
	// emitted decision records. name, runID, prog, dlog, metrics, logger
	// and log are fixed at construction and read without the lock.
	runID string
	prog  *program.Program
	run   *program.Run

	// explainer maintains every peer's explanations over one shared
	// lifecycle analysis, synced to the released prefix only (at
	// publication) — buffered events awaiting their fsync must not leak
	// into explanations.
	explainer *core.RunExplainer
	// guard filters submissions for the transparency-controlled peers
	// (none by default). It is synced to the run including the buffered
	// tail, ahead of the release point.
	guard *design.Guard

	// observable is the released prefix length: every read path (View,
	// Explain, Transitions, Trace, Len, Wait) exposes exactly the
	// first observable events. Under group commit the run may hold a
	// buffered tail past it — events appended to the WAL but not yet
	// fsynced — which no peer may observe (log-before-accept).
	observable int

	// snap is the published read snapshot (see snapshot.go): an immutable
	// capture of the released prefix that View/Explain/Scenario/Transitions/
	// Trace/Len serve without taking mu. Each publication stores the fresh
	// snapshot before closing its predecessor's next channel, so a Wait
	// woken with n always observes Len() ≥ n. snapSeq counts publications.
	// No read result is kept per step: views render from the instance rows'
	// memoized lines, which live and die with the rows.
	snap    atomic.Pointer[snapshot]
	snapSeq uint64
	// done is closed when Close (after its last release) or Crash shuts
	// the coordinator down, waking every Wait. Immutable after construction.
	done chan struct{}
	// dlog is the decision-log pipeline (nil when none); see declog.go.
	dlog *declog.Logger

	// metrics (nil without a registry) and logger (never nil) are the
	// observability hooks; see metrics.go.
	metrics *Metrics
	logger  *slog.Logger

	// log, when non-nil, makes the coordinator durable: every accepted
	// event is appended (log-before-accept), and the log is the run's only
	// record. See durable.go.
	log    *wal.Log
	closed bool

	// idem is the idempotency dedupe window: the key of each accepted
	// keyed submission → its event's index, with idemOrder the FIFO of its
	// keys bounding it to idemMax; idemFlight holds the keyed submissions
	// still in flight (see idempotency.go).
	idem       map[string]int
	idemOrder  []string
	idemMax    int
	idemFlight map[string]*idemFlight
}

// RunID returns the coordinator's run id ("" in single-run mode).
func (c *Coordinator) RunID() string { return c.runID }

// Certify statically certifies the coordinator's program for a peer: it
// runs the h-boundedness and transparency deciders (Theorems 5.10/5.11) so
// a guard installed for the peer can never fire. The searches run on
// opts.Parallelism workers and stop when ctx is cancelled — certification
// of a large program can be abandoned (e.g. on server shutdown) without
// waiting for the exhaustive search to finish. The coordinator's lock is
// not held during the search; submissions proceed concurrently.
func (c *Coordinator) Certify(ctx context.Context, peer schema.Peer, h int, opts transparency.Options) error {
	prog, m := c.prog, c.metrics
	start := time.Now()
	ctx, sp := obs.StartSpan(ctx, "server.certify")
	sp.SetAttr("peer", string(peer))
	sp.SetAttr("h", h)
	defer sp.End()
	d := declog.Decision{Kind: declog.KindCertify, Peer: string(peer), H: h, Index: -1}
	var err error
	if !prog.Schema.HasPeer(peer) {
		err = fmt.Errorf("server: unknown peer %s", peer)
		d.Decision, d.Reason = declog.Errored, "unknown_peer"
	} else {
		// The registry, the trace and the decision log all see the search
		// effort of every Certify call: collect Stats (into the caller's
		// collector when one is given), fold the delta into the decider
		// families afterwards, and stamp the same delta on the span and the
		// decision record. Tracing forces collection too, so a /certify trace
		// always carries its node/cache counters.
		if (m != nil || sp != nil || c.dlog != nil) && opts.Stats == nil {
			opts.Stats = &transparency.Stats{}
		}
		var before transparency.Stats
		if opts.Stats != nil {
			before = *opts.Stats
		}
		d.Decision, d.Reason, err = certifySearch(ctx, prog, peer, h, opts, m)
		if opts.Stats != nil {
			s := opts.Stats.Delta(before)
			m.foldSearch(s)
			sp.SetAttr("nodes", s.Nodes)
			sp.SetAttr("cache_hits", s.CacheHits)
			sp.SetAttr("cache_misses", s.CacheMisses)
			sp.SetAttr("states", s.States)
			sp.SetAttr("workers", s.Workers)
			d.Search = &declog.SearchStats{Nodes: s.Nodes, CacheHits: s.CacheHits,
				CacheMisses: s.CacheMisses, States: s.States, Workers: s.Workers}
		}
	}
	if err != nil {
		d.Detail = err.Error()
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		d.Reason = "cancelled"
	}
	d.DurationNS = time.Since(start).Nanoseconds()
	c.decide(ctx, sp, d, err)
	return err
}

// certifySearch runs the boundedness decider, then the transparency
// decider, and states the verdict: certified, a violation naming the check
// that failed, or an error naming the check that could not finish.
func certifySearch(ctx context.Context, prog *program.Program, peer schema.Peer, h int, opts transparency.Options, m *Metrics) (decision, reason string, err error) {
	bv, err := transparency.CheckBoundedCtx(ctx, prog, peer, h, opts)
	m.deciderOutcome("bounded", bv != nil, err)
	if err != nil {
		return declog.Errored, "bounded", fmt.Errorf("server: certifying %s: %w", peer, err)
	}
	if bv != nil {
		return declog.Violation, "bounded", fmt.Errorf("server: %s is not %d-bounded: %s", peer, h, bv)
	}
	tv, err := transparency.CheckTransparentCtx(ctx, prog, peer, h, opts)
	m.deciderOutcome("transparent", tv != nil, err)
	if err != nil {
		return declog.Errored, "transparent", fmt.Errorf("server: certifying %s: %w", peer, err)
	}
	if tv != nil {
		return declog.Violation, "transparent", fmt.Errorf("server: program is not transparent for %s: %s", peer, tv)
	}
	return declog.Certified, "", nil
}

// Submit serializes one rule firing by a peer into the global run. The
// rule must belong to the submitting peer. Under guards, a violating event
// is rejected and the run left unchanged.
func (c *Coordinator) Submit(peer schema.Peer, ruleName string, bindings map[string]data.Value) (*SubmitResult, error) {
	return c.submitCtx(context.Background(), peer, ruleName, bindings, "")
}

// submitCtx is the submission pipeline shared by Submit (no key) and
// SubmitIdemCtx (key reserved by the caller); idemKey rides inside the WAL
// record so a recovered coordinator can dedupe post-crash retries. Every
// submission ends in exactly one decision, emitted here. The submission
// joins the caller's trace (HTTP request span → coordinator.submit →
// guard_check / wal.append / wal.fsync child spans) and its log lines
// carry the trace_id.
//
// Under a durable SyncAlways coordinator, submission is a two-stage
// pipeline: run mutation, guard checks and the WAL *buffer* append happen
// under the coordinator lock, but the fsync is delegated to the WAL's
// committer stage — the lock is dropped while this submitter waits on its
// batch's commit future, so concurrent submitters pile their records into
// the same fsync (group commit) and read-only calls proceed while the disk
// works. The result is returned and the event published only after the
// batch is durable; a failed batch sync rolls every event of the batch
// back, in reverse order, before any of them became observable.
func (c *Coordinator) submitCtx(ctx context.Context, peer schema.Peer, ruleName string, bindings map[string]data.Value, idemKey string) (*SubmitResult, error) {
	ctx, sp := obs.StartSpan(ctx, "coordinator.submit")
	sp.SetAttr("peer", string(peer))
	sp.SetAttr("rule", ruleName)
	defer sp.End()
	d := declog.Decision{Kind: declog.KindSubmit, Decision: declog.Rejected,
		Peer: string(peer), Rule: ruleName, Index: -1, IdemKey: idemKey}
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.submitLocked(ctx, sp, &d, bindings)
	if err != nil {
		d.RunLen = c.run.Len()
	}
	c.decide(ctx, sp, d, err)
	return res, err
}

// submitLocked fires the rule, checks the guards, makes the event durable
// and releases it, describing the outcome in d: a rejection sets the reason
// and what an audit needs to re-check it, an acceptance the event's index
// (RunLen is the prefix the event extended, and the valuation rides along
// so an audit can replay the run from the log alone). Callers hold the
// lock; submitCtx emits d.
func (c *Coordinator) submitLocked(ctx context.Context, sp *obs.Span, d *declog.Decision, bindings map[string]data.Value) (*SubmitResult, error) {
	if c.closed {
		d.Reason = "closed"
		return nil, fmt.Errorf("%w: coordinator is shut down", ErrUnavailable)
	}
	rl := c.prog.Rule(d.Rule)
	if rl == nil {
		d.Reason = "unknown_rule"
		return nil, fmt.Errorf("server: unknown rule %s", d.Rule)
	}
	if rl.Peer != schema.Peer(d.Peer) {
		d.Reason = "wrong_peer"
		return nil, fmt.Errorf("server: rule %s belongs to %s, not %s", d.Rule, rl.Peer, d.Peer)
	}
	prevLen := c.run.Len()
	e, err := c.run.FireRule(d.Rule, bindings)
	if err != nil {
		d.Reason, d.Detail, d.Valuation = "not_applicable", err.Error(), encodeBindings(bindings)
		return nil, err
	}
	// The event exists from here on. The WAL writes its record from the
	// event's slots; the decision carries its valuation as a map
	// (rejections log it too, so an audit can re-fire the event against
	// the same prefix) only when a decision log is attached.
	if c.dlog != nil {
		d.Valuation = trace.EncodeEvent(e).Valuation
	}
	// Guard check: a pure test of the new event, so a rejection leaves the
	// guard untouched and only the run sheds the event.
	_, gsp := obs.StartSpan(ctx, "coordinator.guard_check")
	gsp.SetAttr("guards", len(c.guard.Peers()))
	if guarded, reason, ok := c.guard.Check(); !ok {
		gsp.SetAttr("guarded", string(guarded))
		gsp.SetAttr("reason", reason)
		gsp.End()
		c.rollbackTo(ctx, prevLen)
		d.Reason, d.Detail, d.Guarded = "guard", reason, string(guarded)
		return nil, fmt.Errorf("server: rejected by the transparency guard for %s: %s", guarded, reason)
	}
	c.guard.Commit()
	gsp.End()
	idx := c.run.Len() - 1
	// Build the result while the event is fresh; per-step effects are
	// immutable, so it stays valid across the off-lock commit wait.
	res := c.resultLocked(idx)
	if c.log != nil {
		if err := c.commitLocked(ctx, sp, d, wal.Record{Seq: idx, Fired: e, Idem: d.IdemKey}, prevLen); err != nil {
			return nil, err
		}
	}
	// With pipelined commits a submitter can find its event already released
	// (a later submitter in the same durable batch re-acquired the lock
	// first); releaseLocked is idempotent for that case.
	c.releaseLocked(idx)
	d.Decision, d.Index, d.RunLen = declog.Accepted, idx, idx
	return res, nil
}

// commitLocked makes the event's record durable before any peer can observe
// it (log-before-accept). A WAL failure rejects the submission (reason
// "wal") and rolls the run back, so the in-memory state never diverges
// ahead of disk. Callers hold the lock; it is dropped while the committer
// fsyncs.
func (c *Coordinator) commitLocked(ctx context.Context, sp *obs.Span, d *declog.Decision, rec wal.Record, prevLen int) error {
	cm, err := c.log.AppendBuffered(ctx, rec)
	if err != nil {
		// A write failure is synchronous and private: only this record was
		// truncated away, so only this event rolls back.
		c.rollbackTo(ctx, prevLen)
		d.Reason, d.Detail = "wal", err.Error()
		return fmt.Errorf("%w: event not durable: %w", ErrUnavailable, err)
	}
	select {
	case <-cm.Done():
		// Already resolved (relaxed sync policies): no need to cycle the
		// lock.
	default:
		// Drop the coordinator lock while the committer fsyncs: submissions
		// arriving now buffer their records behind ours and share the next
		// fsync, and read-only calls are not queued behind disk latency.
		c.mu.Unlock()
		_, wsp := obs.StartSpan(ctx, "coordinator.commit_wait")
		werr := cm.Wait()
		wsp.SetAttr("batch", cm.BatchSize())
		wsp.SetError(werr)
		wsp.End()
		c.mu.Lock()
	}
	if err := cm.Err(); err != nil {
		d.Reason, d.Detail = "wal", err.Error()
		if errors.Is(err, wal.ErrCrashed) {
			// The log died with this commit unresolved: the record may or may
			// not be durable, so this MUST NOT read as a definite rejection —
			// a recovered coordinator could hold the event. The client retries
			// with its idempotency key and the recovered window dedupes.
			return fmt.Errorf("%w: commit outcome unknown: %w", ErrUnavailable, err)
		}
		// The group sync failed: the WAL already truncated every record
		// past its durable prefix and stalled. Realign the run (dropping
		// the same events before any became observable) and resume.
		c.handleWALStallLocked(ctx)
		return fmt.Errorf("%w: event not durable: %w", ErrUnavailable, err)
	}
	sp.SetAttr("batch", cm.BatchSize())
	return nil
}

// resultLocked builds the client-facing result of event idx: its applied
// updates and the peers that observed it. An index outside the run (a
// recovered idempotency entry past the replayed prefix) yields the bare
// index. Callers hold the lock.
func (c *Coordinator) resultLocked(idx int) *SubmitResult {
	res := &SubmitResult{Index: idx}
	if idx < 0 || idx >= c.run.Len() {
		return res
	}
	for _, u := range c.run.Event(idx).Updates() {
		res.Updates = append(res.Updates, u.String())
	}
	for _, q := range c.prog.Peers() {
		if c.run.VisibleAt(idx, q) {
			res.VisibleAt = append(res.VisibleAt, string(q))
		}
	}
	return res
}

// releaseLocked makes every event up to idx observable by publishing a
// snapshot of the prefix, which wakes every Wait. Commits resolve in
// sequence order, so by the time the submitter of idx holds the lock again
// every earlier event is durable too — the released prefix is always
// contiguous.
func (c *Coordinator) releaseLocked(idx int) {
	if idx < c.observable {
		return
	}
	c.observable = idx + 1
	if c.metrics != nil {
		c.metrics.runEvents.Set(float64(c.observable))
	}
	c.publishSnapshotLocked()
}

// RetryAfterHint derives an honest Retry-After (in whole seconds) from the
// durability backlog: the expected drain time of the commit queue at the
// recent per-fsync latency, clamped to [1, 30]. In-memory coordinators and
// an idle queue answer the minimum.
func (c *Coordinator) RetryAfterHint() int {
	if c.log == nil {
		return 1
	}
	est := time.Duration(c.log.Pending()+1) * c.log.SyncLatency()
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		return 1
	}
	if secs > 30 {
		return 30
	}
	return secs
}

// WALStalled reports the failed-group-sync error while the WAL is refusing
// appends, "" when healthy (or in-memory). Surfaced on /statusz so a stall
// that outlives its submitters is visible to operators, not only in logs.
func (c *Coordinator) WALStalled() string {
	if c.log == nil {
		return ""
	}
	if err := c.log.Stalled(); err != nil {
		return err.Error()
	}
	return ""
}

// handleWALStallLocked realigns the coordinator after a failed group sync:
// the WAL truncated everything past its durable prefix and refuses appends
// until the run sheds the same events. Every submitter of a failed commit
// calls this; the first to reach the lock rolls the run back to the
// accepted prefix (in reverse order — none of the dropped events was ever
// observable) and resumes the log, the rest find nothing left to do.
func (c *Coordinator) handleWALStallLocked(ctx context.Context) {
	if c.log.Stalled() == nil {
		return
	}
	if n := c.log.Accepted(); n < c.run.Len() {
		c.rollbackTo(ctx, n)
	}
	c.log.Resume()
}

// rollbackTo truncates the run to its first n events after a rejected
// submission (guard violation or WAL failure) — the dropped suffix is
// removed in reverse order, O(dropped), not by rebuilding the prefix.
// Rejection is invisible to every observer: rollback always targets
// n ≥ observable and publishes nothing, so no snapshot ever holds a
// rejected event, no waiter wakes for one, and the explainer — synced only
// to the released prefix — stays valid untouched. The guard runs ahead of
// the release point: a guard rejection never committed its event, so the
// guard has nothing to drop, while a WAL failure drops admitted events and
// rewinds it. TestGuardRejectionLeavesNoTrace asserts that the run length,
// the snapshot sequence and a blocked waiter are all left as they were.
func (c *Coordinator) rollbackTo(ctx context.Context, n int) {
	_, sp := obs.StartSpan(ctx, "coordinator.rollback")
	sp.SetAttr("from", c.run.Len())
	sp.SetAttr("to", n)
	defer sp.End()
	c.metrics.rolledBack()
	c.run.Truncate(n)
	c.guard.Truncate(n)
}

// unknownPeerErr is the shared unknown-peer rejection.
func unknownPeerErr(peer schema.Peer) error {
	return fmt.Errorf("server: unknown peer %s", peer)
}

// View renders the peer's current view of the database — of the released
// prefix; buffered events not yet durable are invisible. On an empty run
// (ViewAt index −1) this is the peer's view of the initial instance.
// Lock-free: served from the published snapshot. /view streams the same
// rendering (writeViewJSON).
func (c *Coordinator) View(peer schema.Peer) (string, error) {
	s, err := c.readSnapshot(peer)
	if err != nil {
		return "", err
	}
	return s.viewOf(s.last, peer).String(), nil
}

// Explain returns the peer's runtime explanation report of the run so far.
// Lock-free: the snapshot's frozen explainer already incorporates every
// released event (advanced incrementally at release time), so the report is
// assembled from precomputed explanations — no maintenance work happens on
// the read path.
func (c *Coordinator) Explain(peer schema.Peer) (*core.Report, error) {
	s, err := c.readSnapshot(peer)
	if err != nil {
		return nil, err
	}
	ex := s.exp[peer]
	return ex.ReportOver(s, ex.Visible()), nil
}

// ExplainCtx is Explain as a decision on the request's span, served as the
// /explain body: it returns the function that streams the peer's report
// and its rendered text (core.FrozenExplainer.WriteJSON) from one
// snapshot. An unknown peer is an error, decided at once; a served
// explanation is decided when write returns, recording the released-prefix
// length it was served against and, when a decision log is attached, the
// digest of the text as written, so `wfrun -audit` can recompute the
// explanation and prove the served report faithful.
func (c *Coordinator) ExplainCtx(ctx context.Context, peer schema.Peer) (write func(*bufio.Writer), err error) {
	start := time.Now()
	d := declog.Decision{Kind: declog.KindExplain, Decision: declog.Served, Peer: string(peer), Index: -1}
	s, err := c.readSnapshot(peer)
	if err != nil {
		d.Decision, d.Reason, d.Detail = declog.Errored, "unknown_peer", err.Error()
		d.DurationNS = time.Since(start).Nanoseconds()
		c.decide(ctx, obs.SpanFrom(ctx), d, err)
		return nil, err
	}
	return func(w *bufio.Writer) {
		var digest hash.Hash64
		if c.dlog != nil {
			digest = declog.NewDigest()
		}
		s.exp[peer].WriteJSON(w, s, digest)
		d.RunLen, d.DurationNS = s.Len(), time.Since(start).Nanoseconds()
		if digest != nil {
			d.Digest = declog.DigestSum(digest)
		}
		c.decide(ctx, obs.SpanFrom(ctx), d, nil)
	}, nil
}

// Scenario returns the peer's minimal faithful scenario indices.
// Lock-free, like Explain.
func (c *Coordinator) Scenario(peer schema.Peer) ([]int, error) {
	s, err := c.readSnapshot(peer)
	if err != nil {
		return nil, err
	}
	return s.exp[peer].MinimalScenario(), nil
}

// Trace exports the released run prefix as a replayable trace (operator
// access). Lock-free: built from the snapshot's captured event prefix.
func (c *Coordinator) Trace() *trace.Trace {
	c.metrics.read()
	return c.snap.Load().trace()
}

// Len returns the number of events accepted and released so far. Lock-free.
func (c *Coordinator) Len() int { return c.snap.Load().Len() }

// Name returns the workflow name.
func (c *Coordinator) Name() string { return c.name }

// Guards returns the installed transparency guards (peer → step budget h).
// The map is a copy.
func (c *Coordinator) Guards() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.guardsLocked()
}

func (c *Coordinator) guardsLocked() map[string]int {
	budgets := c.guard.Budgets()
	out := make(map[string]int, len(budgets))
	for p, h := range budgets {
		out[string(p)] = h
	}
	return out
}
