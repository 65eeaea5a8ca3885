package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"collabwf/internal/core"
	"collabwf/internal/declog"
	"collabwf/internal/design"
	"collabwf/internal/obs"
	"collabwf/internal/prof"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/trace"
	"collabwf/internal/wal"
)

// DurabilityConfig is a coordinator's whole configuration, fixed at
// construction: where and how it persists its run, and where it reports.
// The zero value is an in-memory coordinator with no registry, logger or
// decision log (New).
type DurabilityConfig struct {
	// Dir is the data directory holding wal.log and, for a guarded run,
	// the guard file snapshot.json, written once when Guards are
	// installed. Empty keeps the run in memory; Sync, Strict and
	// Failpoints then have nothing to act on.
	Dir string
	// RunID names the workflow instance this coordinator serves within a
	// run fleet ("" = single-run mode); it is the Run field of every
	// decision record and the run label of its metrics.
	RunID string
	// Sync is the WAL fsync policy (default wal.SyncAlways).
	Sync wal.SyncPolicy
	// Deprecated: ignored; the WAL is the run's only record.
	SnapshotEvery int
	// Strict refuses to start when the WAL holds a corrupt complete record,
	// instead of the default truncate-at-first-bad-record recovery (the
	// -wal-strict flag).
	Strict bool
	// IdemWindow bounds the idempotency-key dedupe window (submissions
	// remembered for retry deduplication); ≤ 0 means 4096.
	IdemWindow int
	// Failpoints, when non-nil, injects WAL faults (tests only).
	Failpoints *wal.Failpoints
	// Metrics, when non-nil, is the registry of every family the run
	// reports: the WAL's (wf_wal_*) and the coordinator's, read-path and
	// decider families, labelled run=RunID (run="default" when RunID is
	// empty). NewHandler serves it on /metrics.
	Metrics *obs.Registry
	// Logger, when non-nil, is the coordinator's logger ("coordinator"
	// subsystem) and lets the WAL report recovery anomalies (corruption,
	// torn tails) through the "wal" subsystem, so the recovery decision is
	// logged like every later one.
	Logger *slog.Logger
	// DecisionLog, when non-nil, receives one record per decision from
	// construction on, so a durable run's audit stream opens with the
	// recovery record and the re-installed guards — an auditor reading the
	// log from this boot sees which policies every later verdict was decided
	// under. The coordinator does not own the logger; close it after Close.
	DecisionLog *declog.Logger
	// Guards (peer → step budget h ≥ 1) are the transparency guards of a
	// fresh run: installed, persisted and logged at construction when the
	// run recovers empty and holds no guards of its own. A recovered run
	// keeps the guards it was started with and ignores these.
	Guards map[string]int
	// Profiler, when non-nil, attributes the run's rule-engine cost: its
	// candidate enumeration, fires and replays under the "engine" phase,
	// its guard checks per guarded peer and the condition evaluations of
	// its reads. Recovery itself is not attributed.
	Profiler *prof.Profiler
}

// New starts an in-memory coordinator for the program from the empty
// instance, with nothing attached: NewDurable with the zero config.
func New(name string, p *program.Program) *Coordinator {
	c, _ := NewDurable(name, p, DurabilityConfig{}) // only recovery can fail
	return c
}

// NewDurable builds a coordinator from cfg. With cfg.Dir set it recovers
// the run the directory holds (an empty directory is the trivial
// recovery): it replays every WAL record as the log is read, decoded once
// into the event it appends (truncating a torn trailing record rather
// than failing), re-installs the persisted guards and rebuilds the
// idempotency window from the keyed records. A run that
// recovers empty and unguarded takes cfg.Guards instead. A data dir
// written by an earlier version may also hold a snapshot of a run prefix:
// it is replayed first and the records it covers are skipped. Every
// replayed event passes the full run conditions again, so a tampered log
// is rejected, not replayed. The explainer (one shared analysis for every
// peer), the guard and the first read snapshot are then built once, over
// the recovered run, and the profiler is attached before that snapshot.
func NewDurable(name string, p *program.Program, cfg DurabilityConfig) (*Coordinator, error) {
	start := time.Now()
	for peer, h := range cfg.Guards {
		if !p.Schema.HasPeer(schema.Peer(peer)) {
			return nil, fmt.Errorf("server: guard for unknown peer %s", peer)
		}
		if h < 1 {
			return nil, fmt.Errorf("server: guard budget for %s must be ≥ 1", peer)
		}
	}
	c := &Coordinator{
		name:       name,
		runID:      cfg.RunID,
		prog:       p,
		run:        program.NewRun(p),
		done:       make(chan struct{}),
		dlog:       cfg.DecisionLog,
		logger:     obs.Sub(cfg.Logger, "coordinator"),
		idem:       make(map[string]int),
		idemMax:    defaultIdemWindow,
		idemFlight: make(map[string]*idemFlight),
	}
	if cfg.IdemWindow > 0 {
		c.idemMax = cfg.IdemWindow
	}
	budgets := make(map[schema.Peer]int)
	if cfg.Dir != "" {
		if err := c.recoverDir(cfg, budgets); err != nil {
			return nil, err
		}
	}
	// Guards are installed before a run's first event, so the guard
	// admitted every recovered event: build it over the recovered run.
	install := c.run.Len() == 0 && len(budgets) == 0 && len(cfg.Guards) > 0
	if install {
		for peer, h := range cfg.Guards {
			budgets[schema.Peer(peer)] = h
		}
		// Persisted so a recovered coordinator enforces the same policy.
		if c.log != nil {
			if err := wal.WriteGuards(c.log.Dir(), c.name, cfg.Guards); err != nil {
				c.log.Close()
				return nil, fmt.Errorf("server: persisting guards: %w", err)
			}
		}
	}
	c.guard = design.NewGuard(c.run, budgets)
	// Everything recovered was durable before the crash: release it all,
	// building the explainer over the recovered run — one analysis step per
	// event, shared by every peer — so no peer's first Explain replays the
	// prefix, and publish the first snapshot, so reads are lock-free from
	// the first request.
	c.observable = c.run.Len()
	c.explainer = core.NewRunExplainerAt(c.run, p.Peers(), c.observable)
	c.run.SetProfiler(cfg.Profiler.Scope("engine"))
	c.publishSnapshotLocked()
	if cfg.Metrics != nil {
		run := cfg.RunID
		if run == "" {
			run = DefaultRun
		}
		c.instrument(cfg.Metrics, run, time.Since(start))
	}
	// Open this boot's audit stream: a durable run's recovery record, then
	// the guards now in force, in peer order, so an audit knows which
	// policies every later verdict was decided under. Re-logging recovered
	// guards is deliberate — each log segment is independently auditable —
	// and the auditor treats a re-install with an unchanged bound as benign.
	if c.log != nil {
		c.decide(context.Background(), nil, declog.Decision{Kind: declog.KindRecover,
			Decision: declog.Recovered, RunLen: c.run.Len(), Index: -1,
			DurationNS: time.Since(start).Nanoseconds()}, nil)
	}
	reason := "recovered"
	if install {
		reason = ""
	}
	for _, peer := range c.guard.Peers() {
		c.decide(context.Background(), nil, declog.Decision{Kind: declog.KindGuard,
			Decision: declog.Installed, Peer: string(peer), H: budgets[peer], Index: -1,
			Reason: reason}, nil)
	}
	return c, nil
}

// recoverDir opens the WAL in cfg.Dir, replaying it into the coordinator's
// run as it is read, fills budgets with the persisted guards and rebuilds
// the idempotency window. On failure the log is closed again.
func (c *Coordinator) recoverDir(cfg DurabilityConfig, budgets map[schema.Peer]int) error {
	var walLog *slog.Logger
	if cfg.Logger != nil {
		walLog = obs.Sub(cfg.Logger, "wal")
	}
	rp := &replayer{c: c, budgets: budgets}
	log, err := wal.Open(cfg.Dir, wal.Options{
		Sync:       cfg.Sync,
		Strict:     cfg.Strict,
		Failpoints: cfg.Failpoints,
		Metrics:    cfg.Metrics,
		Logger:     walLog,
	}, rp)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	c.log = log
	// A client retrying a submission that was durable before the crash gets
	// its original index back instead of double-applying.
	c.recoverIdemLocked(rp.legacyIdem, rp.keyed)
	return nil
}

// replayer rebuilds a coordinator's run from what wal.Open recovers.
// snapshot.json holds the guards; in a legacy dir also a run prefix and the
// idempotency window its log reset dropped. Each record is appended as it
// is read, re-checking every run condition; of a keyed record only its
// (key, index) pair is kept, for the idempotency window.
type replayer struct {
	c          *Coordinator
	budgets    map[schema.Peer]int
	legacyIdem []wal.IdemEntry
	keyed      []wal.IdemEntry
}

// Program is the coordinator's program: the log's records are decoded into
// the slots of its rules.
func (rp *replayer) Program() *program.Program { return rp.c.prog }

// Start replays the snapshot, if any, and sizes the step list for the
// log's records.
func (rp *replayer) Start(snap *wal.Snapshot, lines int) error {
	c := rp.c
	if snap != nil {
		if snap.Workflow != "" {
			c.name = snap.Workflow
		}
		for peer, h := range snap.Guards {
			sp := schema.Peer(peer)
			if !c.prog.Schema.HasPeer(sp) {
				return fmt.Errorf("persisted guard for unknown peer %s", peer)
			}
			rp.budgets[sp] = h
		}
		run, err := snap.Trace.Replay(c.prog)
		if err != nil {
			return fmt.Errorf("replaying snapshot: %w", err)
		}
		c.run = run
		rp.legacyIdem = snap.Idem
	}
	c.run.Grow(lines)
	return nil
}

// Record appends the record's event to the run.
func (rp *replayer) Record(e wal.Entry) error {
	r := rp.c.run
	if e.Idem != "" {
		rp.keyed = append(rp.keyed, wal.IdemEntry{Key: e.Idem, Index: e.Seq})
	}
	if e.Seq < r.Len() {
		// Already covered by a legacy snapshot (crash between its rename
		// and the log reset).
		return nil
	}
	if e.Seq != r.Len() {
		return fmt.Errorf("WAL gap: record %d follows run of length %d", e.Seq, r.Len())
	}
	ev := e.Event
	var err error
	if ev == nil {
		ev, err = trace.DecodeEvent(r.Prog, e.Rule, e.Val)
	}
	if err == nil {
		err = r.Replay(ev)
	}
	if err != nil {
		return fmt.Errorf("replaying WAL record %d: %w", e.Seq, err)
	}
	return nil
}

// errShutDown is Ready's and Wait's answer once Close or Crash has run.
var errShutDown = errors.New("server: coordinator is shut down")

// Ready reports whether the coordinator can accept submissions: recovery
// complete, not shut down, and (when durable) the WAL writable.
func (c *Coordinator) Ready() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errShutDown
	}
	if c.log != nil {
		return c.log.Healthy()
	}
	return nil
}

// Durable reports whether the coordinator persists its run.
func (c *Coordinator) Durable() bool { return c.log != nil }

// CommitQueueDepth reports how many accepted-but-unfsynced records are
// queued for the next group commit (always 0 for in-memory coordinators).
func (c *Coordinator) CommitQueueDepth() int {
	if c.log == nil {
		return 0
	}
	return c.log.Pending()
}

// WALCorruptRecords reports how many complete-but-corrupt records the WAL
// dropped at the last Open (0 for in-memory coordinators and clean logs).
// The chaos harness asserts this stays zero across crash/recover cycles.
func (c *Coordinator) WALCorruptRecords() int {
	if c.log == nil {
		return 0
	}
	return c.log.CorruptRecords()
}

// Close shuts the coordinator down: further submissions are rejected, the
// commit queue is drained and every durable event released, every Wait is
// woken (answering the shut-down error once its caller has read the whole
// released prefix), and the WAL is synced and closed. Idempotent; a nil
// error means every released event is durable in the WAL.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.log == nil {
		close(c.done)
		return nil
	}
	// Drain in-flight group commits. The committer needs no coordinator
	// lock, so holding it here cannot deadlock; submitters blocked on their
	// futures resolve now and queue behind this lock. A failed drain means
	// the WAL stalled — realign so nothing past the durable prefix is
	// released.
	if err := c.log.Flush(); err != nil {
		c.handleWALStallLocked(context.Background())
	}
	// Release events that are durable but whose submitters have not
	// re-acquired the lock yet, before waking the waiters, so a listener
	// reads every released event before it learns of the shutdown.
	if n := c.run.Len(); n > c.observable {
		c.releaseLocked(n - 1)
	}
	close(c.done)
	return c.log.Close()
}

// Crash simulates a hard process kill, for fault drills: no flush, no
// final sync, no release of buffered events; every Wait is woken as by
// Close. In-flight commits resolve with wal.ErrCrashed (their submitters
// answer ErrUnavailable — outcome unknown) and the WAL file closes as-is.
// The returned offsets are the log's durable prefix and written size (see
// wal.Log.Crash), so a harness can truncate the unsynced tail of WALPath —
// simulating page-cache loss — before handing the directory to NewDurable.
func (c *Coordinator) Crash() (durable, size int64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, 0, fmt.Errorf("server: coordinator already shut down")
	}
	c.closed = true
	close(c.done)
	if c.log == nil {
		return 0, 0, nil
	}
	return c.log.Crash()
}

// WALPath returns the path of the write-ahead log file the offsets Crash
// reports refer to, or "" for an in-memory coordinator.
func (c *Coordinator) WALPath() string {
	if c.log == nil {
		return ""
	}
	return c.log.Path()
}
