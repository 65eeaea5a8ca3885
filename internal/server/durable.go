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
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/trace"
	"collabwf/internal/wal"
)

// DurabilityConfig selects where and how a coordinator persists its run.
type DurabilityConfig struct {
	// Dir is the data directory holding wal.log and, for a guarded run,
	// the guard file snapshot.json.
	Dir string
	// RunID names the workflow instance this coordinator serves within a
	// run fleet ("" = single-run mode); recovered and later decision
	// records carry it.
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
	// Metrics, when non-nil, records WAL and recovery telemetry on the
	// registry (the wf_wal_* and wf_recovery_* families).
	Metrics *obs.Registry
	// Logger, when non-nil, lets the WAL report recovery anomalies
	// (corruption, torn tails) through the "wal" subsystem and is the
	// coordinator's logger from recovery on, so the recovery decision is
	// logged like every later one.
	Logger *slog.Logger
	// DecisionLog, when non-nil, is attached before recovery completes, so
	// the audit stream opens with the recovery record and the re-installed
	// guards — an auditor reading the log from this boot sees which policies
	// every later verdict was decided under. The coordinator does not own
	// the logger; close it after Close.
	DecisionLog *declog.Logger
}

// NewDurable starts a durable coordinator rooted at cfg.Dir, recovering the
// run the directory holds (an empty directory is the trivial recovery): it
// replays every WAL record (truncating a torn trailing record rather than
// failing), re-installs the persisted guards, rebuilds the idempotency
// window from the keyed records, and rebuilds the explainer (one shared
// analysis for every peer) and the guard. A data dir written by an earlier
// version may also hold a snapshot of a run prefix: it is replayed first
// and the records it covers are skipped. Every replayed event passes the
// full run conditions again, so a tampered log is rejected, not replayed.
func NewDurable(name string, p *program.Program, cfg DurabilityConfig) (*Coordinator, error) {
	start := time.Now()
	var walLog *slog.Logger
	if cfg.Logger != nil {
		walLog = obs.Sub(cfg.Logger, "wal")
	}
	log, err := wal.Open(cfg.Dir, wal.Options{
		Sync:       cfg.Sync,
		Strict:     cfg.Strict,
		Failpoints: cfg.Failpoints,
		Metrics:    cfg.Metrics,
		Logger:     walLog,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	c := New(name, p)
	c.SetLogger(cfg.Logger)
	c.runID = cfg.RunID
	c.log = log
	if cfg.IdemWindow > 0 {
		c.idemMax = cfg.IdemWindow
	}

	// snapshot.json holds the guards; in a legacy dir also a run prefix and
	// the idempotency window its log reset dropped.
	snap, tail := log.TakeRecovered()
	budgets := make(map[schema.Peer]int)
	var legacyIdem []wal.IdemEntry
	if snap != nil {
		if snap.Workflow != "" {
			c.name = snap.Workflow
		}
		for peer, h := range snap.Guards {
			sp := schema.Peer(peer)
			if !p.Schema.HasPeer(sp) {
				log.Close()
				return nil, fmt.Errorf("server: persisted guard for unknown peer %s", peer)
			}
			budgets[sp] = h
		}
		run, err := snap.Trace.Replay(p)
		if err != nil {
			log.Close()
			return nil, fmt.Errorf("server: replaying snapshot: %w", err)
		}
		c.run = run
		legacyIdem = snap.Idem
	}
	for _, rec := range tail {
		if rec.Seq < c.run.Len() {
			// Already covered by a legacy snapshot (crash between its
			// rename and the log reset).
			continue
		}
		if rec.Seq != c.run.Len() {
			log.Close()
			return nil, fmt.Errorf("server: WAL gap: record %d follows run of length %d", rec.Seq, c.run.Len())
		}
		if err := applyRecord(c.run, rec.Event); err != nil {
			log.Close()
			return nil, fmt.Errorf("server: replaying WAL record %d: %w", rec.Seq, err)
		}
	}
	// Guards were installed before the run started, so the guard admitted
	// every recovered event: rebuild it over the recovered run.
	c.guard = design.NewGuard(c.run, budgets)
	// A client retrying a submission that was durable before the crash gets
	// its original index back instead of double-applying.
	c.recoverIdemLocked(legacyIdem, tail)
	// Everything recovered was durable before the crash: release it all.
	c.observable = c.run.Len()
	// New published an empty-prefix snapshot over the pre-replay run, and its
	// explainer is bound to that run too: rebuild it against the recovered
	// run here, during recovery — one analysis step per event, shared by
	// every peer — so no peer's first Explain replays the whole prefix under
	// the lock, then swap in the real snapshot. Views need no reset: nothing
	// caches them per step, and recovery renders none.
	c.explainer = core.NewRunExplainerAt(c.run, p.Peers(), c.observable)
	c.publishSnapshotLocked()
	c.observeRecovery(time.Since(start), c.run.Len())
	c.dlog.Store(cfg.DecisionLog)
	// Open this boot's audit stream: one recovery record, then the guards
	// now in force. Re-logging recovered guards is deliberate — each log
	// segment is independently auditable — and the auditor treats a
	// re-install with an unchanged bound as benign.
	c.decide(context.Background(), nil, declog.Decision{Kind: declog.KindRecover,
		Decision: declog.Recovered, RunLen: c.run.Len(), Index: -1,
		DurationNS: time.Since(start).Nanoseconds()}, nil)
	for _, peer := range c.guard.Peers() {
		c.decide(context.Background(), nil, declog.Decision{Kind: declog.KindGuard,
			Decision: declog.Installed, Peer: string(peer), H: budgets[peer], Index: -1,
			Reason: "recovered"}, nil)
	}
	return c, nil
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
func (c *Coordinator) Durable() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log != nil
}

// CommitQueueDepth reports how many accepted-but-unfsynced records are
// queued for the next group commit (always 0 for in-memory coordinators).
func (c *Coordinator) CommitQueueDepth() int {
	c.mu.Lock()
	log := c.log
	c.mu.Unlock()
	if log == nil {
		return 0
	}
	return log.Pending()
}

// WALCorruptRecords reports how many complete-but-corrupt records the WAL
// dropped at the last Open (0 for in-memory coordinators and clean logs).
// The chaos harness asserts this stays zero across crash/recover cycles.
func (c *Coordinator) WALCorruptRecords() int {
	c.mu.Lock()
	log := c.log
	c.mu.Unlock()
	if log == nil {
		return 0
	}
	return log.CorruptRecords()
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
// reports refer to, or "" for an in-memory coordinator. The log is fixed at
// construction, so no lock is needed.
func (c *Coordinator) WALPath() string {
	if c.log == nil {
		return ""
	}
	return c.log.Path()
}

// applyRecord decodes one WAL record into an event and appends it to the
// run, re-checking all run conditions.
func applyRecord(r *program.Run, rec trace.EventRecord) error {
	e, err := rec.Decode(r.Prog)
	if err != nil {
		return err
	}
	return r.Append(e)
}
