// Package server implements the master-server architecture sketched in the
// paper's conclusion: a coordinator "that has access to all the
// information, receives the updates, propagates them to appropriate peers,
// and controls transparency and boundedness for certain peers."
//
// The Coordinator serializes concurrent peer submissions into a single
// global run, maintains every peer's incremental explanations, notifies
// subscribers of the transitions visible to them (each with its faithful
// explanation), and — for guarded peers — rejects submissions that would
// make the run non-transparent or exceed the step budget. An HTTP façade
// (Handler) exposes the same operations as a JSON API.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"collabwf/internal/core"
	"collabwf/internal/data"
	"collabwf/internal/declog"
	"collabwf/internal/design"
	"collabwf/internal/obs"
	"collabwf/internal/prof"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/trace"
	"collabwf/internal/transparency"
	"collabwf/internal/wal"
)

// Notification tells a subscriber about one transition visible to it.
type Notification struct {
	// Index is the event's position in the global run.
	Index int `json:"index"`
	// Omega is true when another peer performed the event.
	Omega bool `json:"omega"`
	// Rule names the fired rule (own events only; hidden behind ω
	// otherwise — the subscriber learns exactly what its run view shows).
	Rule string `json:"rule,omitempty"`
	// View renders the subscriber's view after the transition.
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
	// emitted decision records.
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
	// Explain, Transitions, Trace, Len, notifications) exposes exactly the
	// first observable events. Under group commit the run may hold a
	// buffered tail past it — events appended to the WAL but not yet
	// fsynced — which no peer may observe (log-before-accept).
	observable int

	// snap is the published read snapshot (see snapshot.go): an immutable
	// capture of the released prefix that View/Explain/Scenario/Transitions/
	// Trace/Len serve without taking mu. releaseLocked swaps a fresh one in
	// before notifying, so a subscriber that receives notification idx
	// always observes Len() ≥ idx+1. snapSeq counts publications. No read
	// result is kept per step: views render from the instance rows' memoized
	// lines, which live and die with the rows.
	snap    atomic.Pointer[snapshot]
	snapSeq uint64
	// mread mirrors metrics for the lock-free read paths, which must not
	// touch mu to read the field InstrumentRun sets under it.
	mread atomic.Pointer[Metrics]
	// dlog is the attached decision-log pipeline (nil when none); see
	// declog.go. Atomic for the same reason as mread: certify/explain emit
	// without the coordinator lock.
	dlog atomic.Pointer[declog.Logger]

	subs   map[schema.Peer]map[int]chan Notification
	nextID int
	// dropped counts notifications lost to slow subscribers. It counts
	// delivery attempts on accepted events only: a guard- or WAL-rejected
	// submission never reaches notify, so it can neither deliver nor drop.
	// wf_notifications_dropped_total{peer} attributes the same losses.
	dropped int

	// profiler is the attached rule-engine cost profiler (nil when off);
	// SetProfiler wires its "engine" scope into the run and the guard-check
	// attribution below. All hooks are nil-safe.
	profiler *prof.Profiler

	// metrics and logger are the observability hooks (nil-safe); see
	// metrics.go. recoveryTime/recoveredEvents stamp the last recovery so a
	// later InstrumentRun can surface it.
	metrics         *Metrics
	logger          *slog.Logger
	recoveryTime    time.Duration
	recoveredEvents int

	// log, when non-nil, makes the coordinator durable: every accepted
	// event is appended (log-before-accept) and the run prefix is
	// snapshotted every snapshotEvery events. See durable.go.
	log           *wal.Log
	snapshotEvery int
	sinceSnapshot int
	// lastSnapErr remembers a failed background snapshot (the events are
	// still safe in the WAL); surfaced via Ready.
	lastSnapErr error
	// snapRetryArmed is true while a deferred-snapshot retry timer is in
	// flight (a threshold snapshot hit wal.ErrBusy); see
	// armSnapshotRetryLocked.
	snapRetryArmed bool
	closed         bool

	// idem is the idempotency dedupe state: key → entry, with idemOrder the
	// FIFO of resolved keys bounding the window to idemMax (see
	// idempotency.go).
	idem      map[string]*idemEntry
	idemOrder []string
	idemMax   int
}

// New starts a coordinator for the program from the empty instance.
func New(name string, p *program.Program) *Coordinator {
	run := program.NewRun(p)
	c := &Coordinator{
		name:      name,
		prog:      p,
		run:       run,
		explainer: core.NewRunExplainerAt(run, p.Peers(), 0),
		guard:     design.NewGuard(run, nil),
		subs:      make(map[schema.Peer]map[int]chan Notification),
		idem:      make(map[string]*idemEntry),
	}
	// Publish the empty-prefix snapshot so reads are lock-free from the
	// first request (no "nil snapshot" fallback state exists).
	c.publishSnapshotLocked()
	return c
}

// SetRunID names the workflow instance this coordinator serves within a
// run fleet. It must be set before traffic (the Manager sets it at shard
// construction, NewDurable from its config); "" is the single-run mode.
func (c *Coordinator) SetRunID(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runID = id
}

// RunID returns the coordinator's run id ("" in single-run mode).
func (c *Coordinator) RunID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runID
}

// SetProfiler attaches a rule-engine cost profiler to the coordinator: the
// live run's candidate enumeration, fires and replays are attributed under
// the "engine" phase, and every guard check is timed per guarded peer. Call
// it before serving traffic (like InstrumentRun); nil detaches.
func (c *Coordinator) SetProfiler(p *prof.Profiler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.profiler = p
	c.run.SetProfiler(p.Scope("engine"))
	c.guard.SetProfiler(p)
}

// Profiler returns the attached profiler (nil when profiling is off).
func (c *Coordinator) Profiler() *prof.Profiler {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.profiler
}

// Guard enforces transparency and h-boundedness for the peer: submissions
// (by anyone) that would violate either are rejected. Must be called
// before any submission.
func (c *Coordinator) Guard(peer schema.Peer, h int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.prog.Schema.HasPeer(peer) {
		return fmt.Errorf("server: unknown peer %s", peer)
	}
	if c.run.Len() > 0 {
		return fmt.Errorf("server: guards must be installed before the run starts")
	}
	if h < 1 {
		return fmt.Errorf("server: guard budget must be ≥ 1")
	}
	prev := c.guard
	budgets := prev.Budgets()
	budgets[peer] = h
	c.guard = design.NewGuard(c.run, budgets)
	c.guard.SetProfiler(c.profiler)
	// Guards are part of the durable configuration: persist them so a
	// recovered coordinator enforces the same policy.
	if c.log != nil {
		if err := c.writeSnapshotLocked(context.Background()); err != nil {
			c.guard = prev
			return fmt.Errorf("server: persisting guard: %w", err)
		}
	}
	// Logged so an audit of the decision stream knows which policies the
	// later submission verdicts were decided under.
	c.decide(context.Background(), nil, declog.Decision{Kind: declog.KindGuard,
		Decision: declog.Installed, Peer: string(peer), H: h, Index: -1}, nil)
	return nil
}

// Certify statically certifies the coordinator's program for a peer: it
// runs the h-boundedness and transparency deciders (Theorems 5.10/5.11) so
// a guard installed for the peer can never fire. The searches run on
// opts.Parallelism workers and stop when ctx is cancelled — certification
// of a large program can be abandoned (e.g. on server shutdown) without
// waiting for the exhaustive search to finish. The coordinator's lock is
// not held during the search; submissions proceed concurrently.
func (c *Coordinator) Certify(ctx context.Context, peer schema.Peer, h int, opts core.Options) error {
	c.mu.Lock()
	prog := c.prog
	m := c.metrics
	c.mu.Unlock()
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
		if (m != nil || sp != nil || c.dlog.Load() != nil) && opts.Stats == nil {
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
func certifySearch(ctx context.Context, prog *program.Program, peer schema.Peer, h int, opts core.Options, m *Metrics) (decision, reason string, err error) {
	bv, err := core.CheckBoundedCtx(ctx, prog, peer, h, opts)
	m.deciderOutcome("bounded", bv != nil, err)
	if err != nil {
		return declog.Errored, "bounded", fmt.Errorf("server: certifying %s: %w", peer, err)
	}
	if bv != nil {
		return declog.Violation, "bounded", fmt.Errorf("server: %s is not %d-bounded: %s", peer, h, bv)
	}
	tv, err := core.CheckTransparentCtx(ctx, prog, peer, h, opts)
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
	return c.SubmitCtx(context.Background(), peer, ruleName, bindings)
}

// SubmitCtx is Submit with a caller context, so the submission joins the
// caller's trace (HTTP request span → coordinator.submit → guard_check /
// wal.append / wal.fsync / notify child spans) and log lines carry its
// trace_id.
//
// Under a durable SyncAlways coordinator, submission is a two-stage
// pipeline: run mutation, guard checks and the WAL *buffer* append happen
// under the coordinator lock, but the fsync is delegated to the WAL's
// committer stage — the lock is dropped while this submitter waits on its
// batch's commit future, so concurrent submitters pile their records into
// the same fsync (group commit) and read-only calls proceed while the disk
// works. The result and notifications are released only after the batch is
// durable; a failed batch sync rolls every event of the batch back, in
// reverse order, before any of them became observable.
func (c *Coordinator) SubmitCtx(ctx context.Context, peer schema.Peer, ruleName string, bindings map[string]data.Value) (*SubmitResult, error) {
	return c.submitCtx(ctx, peer, ruleName, bindings, "")
}

// submitCtx is the submission pipeline shared by SubmitCtx (no key) and
// SubmitIdemCtx (key reserved by the caller); idemKey rides inside the WAL
// record so a recovered coordinator can dedupe post-crash retries. Every
// submission ends in exactly one decision, emitted here.
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
	if err != nil {
		return nil, err
	}
	c.maybeSnapshotLocked(ctx)
	return res, nil
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
	// The event exists from here on. One encoding serves the WAL record and
	// the decision's valuation (rejections log it too, so an audit can
	// re-fire the event against the same prefix); with neither attached the
	// event is not encoded at all.
	var ev trace.EventRecord
	if c.log != nil || c.dlog.Load() != nil {
		ev = trace.EncodeEvent(e)
		d.Valuation = ev.Valuation
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
		if err := c.commitLocked(ctx, sp, d, wal.Record{Seq: idx, Event: ev, Idem: d.IdemKey}, prevLen); err != nil {
			return nil, err
		}
		c.sinceSnapshot++
	}
	// With pipelined commits a submitter can find its event already released
	// (a later submitter in the same durable batch re-acquired the lock
	// first); releaseLocked is idempotent for that case.
	c.releaseLocked(ctx, idx)
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
	for _, u := range c.run.Event(idx).Updates {
		res.Updates = append(res.Updates, u.String())
	}
	for _, q := range c.prog.Peers() {
		if c.run.VisibleAt(idx, q) {
			res.VisibleAt = append(res.VisibleAt, string(q))
		}
	}
	return res
}

// releaseLocked makes every event up to idx observable, notifying
// subscribers in strict index order. Commits resolve in sequence order, so
// by the time the submitter of idx holds the lock again every earlier event
// is durable too — the released prefix is always contiguous.
//
// The read snapshot is published before the first notification goes out:
// a subscriber that receives notification idx and then calls Len() (now
// lock-free) must observe ≥ idx+1.
func (c *Coordinator) releaseLocked(ctx context.Context, idx int) {
	if idx < c.observable {
		return
	}
	start := c.observable
	c.observable = idx + 1
	if c.metrics != nil {
		c.metrics.runEvents.Set(float64(c.observable))
	}
	c.publishSnapshotLocked()
	for i := start; i <= idx; i++ {
		c.notify(ctx, i)
	}
}

// maybeSnapshotLocked writes a snapshot once enough events accumulated
// since the last one. A failed snapshot is not fatal — the events are safe
// in the WAL and recovery just replays a longer tail — but it is remembered
// and surfaced via Ready. wal.ErrBusy (commits still in flight) is not a
// failure either: the attempt is re-armed on a short-backoff timer, so a
// deferred snapshot lands as soon as the commit queue drains instead of
// waiting for the next threshold crossing (the WAL counts each deferral on
// wf_wal_snapshot_deferred_total).
func (c *Coordinator) maybeSnapshotLocked(ctx context.Context) {
	if c.closed || c.snapshotEvery <= 0 || c.sinceSnapshot < c.snapshotEvery {
		return
	}
	switch err := c.writeSnapshotLocked(ctx); {
	case err == nil:
	case errors.Is(err, wal.ErrBusy):
		c.armSnapshotRetryLocked(10 * time.Millisecond)
	default:
		c.lastSnapErr = err
	}
}

// armSnapshotRetryLocked schedules one retry of a busy-deferred snapshot
// after delay, doubling (capped at 500ms) while the commit queue stays
// busy. At most one timer is in flight; a threshold snapshot that lands in
// the meantime resets sinceSnapshot and the retry becomes a no-op. Callers
// hold the lock.
func (c *Coordinator) armSnapshotRetryLocked(delay time.Duration) {
	if c.snapRetryArmed {
		return
	}
	c.snapRetryArmed = true
	time.AfterFunc(delay, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.snapRetryArmed = false
		if c.closed || c.snapshotEvery <= 0 || c.sinceSnapshot < c.snapshotEvery {
			return
		}
		switch err := c.writeSnapshotLocked(context.Background()); {
		case err == nil:
		case errors.Is(err, wal.ErrBusy):
			next := delay * 2
			if next > 500*time.Millisecond {
				next = 500 * time.Millisecond
			}
			c.armSnapshotRetryLocked(next)
		default:
			c.lastSnapErr = err
		}
	})
}

// RetryAfterHint derives an honest Retry-After (in whole seconds) from the
// durability backlog: the expected drain time of the commit queue at the
// recent per-fsync latency, clamped to [1, 30]. In-memory coordinators and
// an idle queue answer the minimum.
func (c *Coordinator) RetryAfterHint() int {
	c.mu.Lock()
	log := c.log
	c.mu.Unlock()
	if log == nil {
		return 1
	}
	est := time.Duration(log.Pending()+1) * log.SyncLatency()
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
	c.mu.Lock()
	log := c.log
	c.mu.Unlock()
	if log == nil {
		return ""
	}
	if err := log.Stalled(); err != nil {
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
// n ≥ observable (notify runs only after an event is released), so rejected
// events never reach a subscriber channel, and the explainer — synced only
// to the released prefix — stays valid untouched. The guard runs ahead of
// the release point: a guard rejection never committed its event, so the
// guard has nothing to drop, while a WAL failure drops admitted events and
// rewinds it. Only the run length, the subscriber channels' contents, and
// the dropped counter are guaranteed unchanged — all three are asserted by
// TestGuardRejectionLeavesNoTrace.
func (c *Coordinator) rollbackTo(ctx context.Context, n int) {
	_, sp := obs.StartSpan(ctx, "coordinator.rollback")
	sp.SetAttr("from", c.run.Len())
	sp.SetAttr("to", n)
	defer sp.End()
	c.metrics.rolledBack()
	c.run.Truncate(n)
	c.guard.Truncate(n)
}

// notify pushes the transition at index idx to every subscriber that sees
// it. Slow subscribers lose notifications rather than blocking the run.
func (c *Coordinator) notify(ctx context.Context, idx int) {
	_, sp := obs.StartSpan(ctx, "coordinator.notify")
	defer sp.End()
	sent, droppedNow := 0, 0
	snap := c.snap.Load()
	for peer, chans := range c.subs {
		if len(chans) == 0 || !snap.VisibleAt(idx, peer) {
			continue
		}
		n := c.buildNotification(peer, idx)
		for _, ch := range chans {
			select {
			case ch <- n:
				sent++
				if c.metrics != nil {
					c.metrics.notifSent.Inc()
				}
			default:
				droppedNow++
				c.dropped++
				if c.metrics != nil {
					c.metrics.notifDropped.With(c.metrics.lv(string(peer))...).Inc()
				}
			}
		}
	}
	sp.SetAttr("sent", sent)
	sp.SetAttr("dropped", droppedNow)
}

// makeNotification assembles a Notification from its parts. The push
// (buildNotification, over the live run) and poll (snapshot.notification)
// builders both route through it so the two stay byte-identical; both
// render the view by the same walk over memoized row lines.
func makeNotification(e *program.Event, peer schema.Peer, idx int, view string, because []int) Notification {
	n := Notification{
		Index: idx,
		Omega: e.Peer() != peer,
		View:  view,
	}
	if !n.Omega {
		n.Rule = e.Rule.Name
	}
	for _, j := range because {
		if j != idx {
			n.Because = append(n.Because, j)
		}
	}
	sort.Ints(n.Because)
	return n
}

// buildNotification builds the push notification of released event idx;
// its explanation comes from the published snapshot, which covers idx.
func (c *Coordinator) buildNotification(peer schema.Peer, idx int) Notification {
	return makeNotification(c.run.Event(idx), peer, idx,
		c.run.ViewAt(idx, peer).String(), c.snap.Load().exp[peer].ExplainEvent(idx))
}

// Subscribe registers a notification channel for the peer's visible
// transitions; the returned cancel function unregisters it. The channel
// buffers `buffer` notifications and drops on overflow.
func (c *Coordinator) Subscribe(peer schema.Peer, buffer int) (<-chan Notification, func(), error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, nil, fmt.Errorf("server: coordinator is shut down")
	}
	if !c.prog.Schema.HasPeer(peer) {
		return nil, nil, fmt.Errorf("server: unknown peer %s", peer)
	}
	if buffer < 1 {
		buffer = 16
	}
	ch := make(chan Notification, buffer)
	if c.subs[peer] == nil {
		c.subs[peer] = make(map[int]chan Notification)
	}
	c.nextID++
	id := c.nextID
	c.subs[peer][id] = ch
	if c.metrics != nil {
		c.metrics.subscribers.Inc()
	}
	// cancel is idempotent and stays safe after Close: it only ever deletes
	// the channel from the registry — closing is Close's job alone, so a
	// cancel racing a shutdown can never double-close.
	cancel := func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if chans := c.subs[peer]; chans != nil {
			if _, ok := chans[id]; ok && c.metrics != nil {
				c.metrics.subscribers.Dec()
			}
			delete(chans, id)
		}
	}
	return ch, cancel, nil
}

// closeSubscribersLocked closes every subscriber channel so consumers
// ranging over them exit at shutdown, and zeroes the subscriber accounting
// (the wf_subscribers gauge would otherwise stay stale forever). Callers
// hold the lock and must have released every accepted event first.
func (c *Coordinator) closeSubscribersLocked() {
	for peer, chans := range c.subs {
		for id, ch := range chans {
			close(ch)
			delete(chans, id)
			if c.metrics != nil {
				c.metrics.subscribers.Dec()
			}
		}
		delete(c.subs, peer)
	}
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
	return s.viewAt(s.Len()-1, peer).String(), nil
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
		if c.dlog.Load() != nil {
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

// Transitions returns the peer's visible transitions with indices ≥ from,
// for poll-based observation. Lock-free: the snapshot's visible-index slice
// and a binary search make a poll O(answer); the underlying cache grows
// only with newly released events, at release time.
func (c *Coordinator) Transitions(peer schema.Peer, from int) ([]Notification, error) {
	out, _, err := c.TransitionsAndLen(peer, from)
	return out, err
}

// Trace exports the released run prefix as a replayable trace (operator
// access). Lock-free: built from the snapshot's captured event prefix.
func (c *Coordinator) Trace() *trace.Trace {
	c.readMetrics().read()
	return c.snap.Load().trace()
}

// Len returns the number of events accepted and released so far. Lock-free.
func (c *Coordinator) Len() int { return c.snap.Load().Len() }

// Dropped reports notifications lost to slow subscribers.
func (c *Coordinator) Dropped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Name returns the workflow name.
func (c *Coordinator) Name() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.name
}

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

// Subscribers returns the number of registered notification channels.
func (c *Coordinator) Subscribers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, chans := range c.subs {
		total += len(chans)
	}
	return total
}
