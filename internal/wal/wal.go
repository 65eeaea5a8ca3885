// Package wal provides the durability substrate for the master server: a
// write-ahead log of accepted events plus periodic snapshots of the run
// prefix. The log is a sequence of JSON lines, one Record per accepted
// event (reusing trace.EventRecord for the payload), so a crashed
// coordinator is reconstructed by replaying the snapshot trace and then the
// WAL tail. Torn trailing records — the signature of a crash mid-write —
// are truncated on open, never fatal.
//
// The intended discipline is log-before-accept: the coordinator appends an
// event's record (and, under the "always" policy, fsyncs it) before the
// event becomes observable to any peer. If the append fails the caller must
// roll the in-memory state back, so memory never runs ahead of disk.
//
// AppendBuffered is the one append path. It writes the record into the log
// file and returns a *Commit future; a single committer goroutine does every
// record fsync off the log lock. Under "always" it coalesces every record
// buffered while the previous fsync was in flight into ONE fsync (group
// commit) and resolves the whole batch at once. A failed group sync
// truncates the file back to the durable prefix, fails every queued commit,
// and stalls the log until the caller realigns its in-memory state
// (Truncate the run back to Accepted()) and calls Resume — so a crash or
// I/O error can never leave a sequence gap. Under "interval" commits resolve
// at write time and the committer fsyncs a dirty tail once per interval.
package wal

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"collabwf/internal/obs"
	"collabwf/internal/trace"
)

// castagnoli is the CRC32C polynomial table shared by record and snapshot
// checksums (the same polynomial storage systems use for on-disk pages).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when the log fsyncs appended records.
type SyncPolicy string

const (
	// SyncAlways fsyncs after every append: an accepted event survives any
	// crash. This is the default.
	SyncAlways SyncPolicy = "always"
	// SyncInterval fsyncs a dirty tail once per syncInterval, off the
	// append path; a crash may lose the records appended since the last
	// sync (they are still valid on disk unless the OS lost them).
	SyncInterval SyncPolicy = "interval"
	// SyncNever leaves syncing to the OS page cache.
	SyncNever SyncPolicy = "never"
)

// syncInterval is the fsync cadence under SyncInterval: the committer makes
// a dirty tail durable at most this long after it was written.
const syncInterval = 100 * time.Millisecond

// ParsePolicy converts a flag string into a SyncPolicy.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncAlways, SyncInterval, SyncNever:
		return SyncPolicy(s), nil
	}
	return "", fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// ErrBusy is returned by WriteSnapshotCtx while buffered commits are awaiting
// their group fsync: resetting the log file then would wipe bytes that
// in-flight submissions still need. Retry once the queue drains.
var ErrBusy = errors.New("wal: commits in flight, snapshot deferred")

// ErrCrashed resolves commits that were still awaiting their group fsync
// when Crash was called: their records may or may not be durable — exactly
// the ambiguity a real power cut leaves. Callers must treat the outcome as
// unknown (retry with an idempotency key), never as a definite rejection.
var ErrCrashed = errors.New("wal: log crashed before the commit resolved")

// ErrCorrupt tags checksum or parse failures of a COMPLETE record (one that
// ends in a newline) — silent disk corruption rather than the torn tail of
// a crash mid-write. Under Options.Strict, Open refuses to start with an
// error wrapping it; by default the log is truncated at the first corrupt
// record instead.
var ErrCorrupt = errors.New("wal: corrupt record")

// Record is one durable entry: the event's absolute position in the run
// plus its serialized form. The sequence number makes replay idempotent —
// records already covered by the snapshot (a crash can land between
// snapshot rename and log reset) are skipped on recovery.
type Record struct {
	Seq   int               `json:"seq"`
	Event trace.EventRecord `json:"event"`
	// Idem is the submitter's idempotency key, persisted so that a recovered
	// coordinator can recognise a client retry of an event that was durable
	// before the crash. Empty for server-generated or keyless submissions.
	Idem string `json:"idem,omitempty"`
	// CRC is the CRC32C of the record's compact JSON encoding with CRC
	// itself absent (see Checksum). Zero/absent means unchecksummed —
	// records written by pre-checksum versions still replay.
	CRC uint32 `json:"crc,omitempty"`
}

// Checksum computes the record's CRC32C: the checksum of the compact JSON
// encoding of the record with the CRC field zeroed (and therefore omitted).
// Go's JSON encoding is deterministic — struct fields in declaration order,
// map keys sorted — so the value survives a decode/re-encode round trip.
func (r Record) Checksum() (uint32, error) {
	r.CRC = 0
	b, err := json.Marshal(r)
	if err != nil {
		return 0, err
	}
	return crc32.Checksum(b, castagnoli), nil
}

// IdemEntry maps one idempotency key to the index of the event it produced;
// the snapshot carries the coordinator's recent window so dedupe survives a
// snapshot + restart (the covered WAL records are gone after the log reset).
type IdemEntry struct {
	Key   string `json:"key"`
	Index int    `json:"index"`
}

// Snapshot is the durable prefix of a coordinator: the replayable trace of
// the first Len events together with the installed guards. It is written
// atomically (temp file + rename), so a reader sees either the previous or
// the new snapshot, never a torn one.
type Snapshot struct {
	Workflow string         `json:"workflow,omitempty"`
	Guards   map[string]int `json:"guards,omitempty"`
	Len      int            `json:"len"`
	Trace    *trace.Trace   `json:"trace"`
	// Idem is the recent idempotency-key window at snapshot time.
	Idem []IdemEntry `json:"idem,omitempty"`
	// CRC is the whole-file checksum: the CRC32C of the snapshot's COMPACT
	// JSON encoding with CRC absent, so it is independent of indentation.
	// Zero/absent means unchecksummed (pre-checksum snapshots still load).
	CRC uint32 `json:"crc,omitempty"`
}

// Checksum computes the snapshot's CRC32C the same way Record.Checksum
// does: over the compact encoding with the CRC field zeroed.
func (s *Snapshot) Checksum() (uint32, error) {
	c := *s
	c.CRC = 0
	b, err := json.Marshal(&c)
	if err != nil {
		return 0, err
	}
	return crc32.Checksum(b, castagnoli), nil
}

// Options configures a Log.
type Options struct {
	// Sync is the fsync policy; empty means SyncAlways.
	Sync SyncPolicy
	// Strict refuses to open a log that contains a corrupt complete record
	// (checksum mismatch or unparseable line followed by a newline) instead
	// of truncating the log at the first bad record. Torn trailing records
	// — the ordinary signature of a crash mid-write — are truncated under
	// either policy; Strict only changes how silent corruption is handled.
	Strict bool
	// Failpoints, when non-nil, lets tests inject write, partial-write and
	// sync failures.
	Failpoints *Failpoints
	// Metrics, when non-nil, registers the wf_wal_* families on the
	// registry and records appends, fsyncs, snapshots, recovery and
	// injected faults.
	Metrics *obs.Registry
	// Logger, when non-nil, reports recovery anomalies (corruption, torn
	// tails) — silent by default.
	Logger *slog.Logger
}

const (
	logName      = "wal.log"
	snapshotName = "snapshot.json"
)

// Commit is the future for a buffered append: it resolves once the record's
// batch has been fsynced (or the group sync failed). Appends under relaxed
// policies (SyncInterval, SyncNever) return an already-resolved Commit.
type Commit struct {
	seq   int
	ready chan struct{}
	err   error
	batch int
	// ctx is the submitter's context at append time; the committer starts
	// its wal.fsync span from the FIRST commit of the batch so the group
	// sync appears in that submitter's trace (the span must be a child of a
	// still-open span — the submitter blocks in Wait until we resolve).
	ctx context.Context
}

// Wait blocks until the commit's batch is durable (or failed) and returns
// the batch outcome.
func (c *Commit) Wait() error {
	<-c.ready
	return c.err
}

// Done returns a channel closed when the commit has resolved.
func (c *Commit) Done() <-chan struct{} { return c.ready }

// Err returns the commit outcome; only valid after Wait or Done.
func (c *Commit) Err() error { return c.err }

// BatchSize reports how many records the resolving fsync covered (1 under
// the relaxed policies). Only valid after Wait or Done.
func (c *Commit) BatchSize() int { return c.batch }

// resolvedCommit returns a Commit that is already done.
func resolvedCommit(seq int, err error) *Commit {
	ch := make(chan struct{})
	close(ch)
	return &Commit{seq: seq, ready: ch, err: err, batch: 1}
}

// Log is an append-only write-ahead log rooted at a directory, holding
// wal.log (JSON lines of Records) and snapshot.json. Safe for concurrent
// use.
type Log struct {
	mu   sync.Mutex
	cond *sync.Cond // signals Flush and snapshot waiters; tied to mu
	dir  string
	f    *os.File
	opts Options

	// end is the offset of the end of the last fully-written record; a
	// failed append truncates back to it.
	end int64
	// durable is the offset covered by the last successful fsync; a failed
	// group sync truncates the file back to it. The tail is dirty while
	// end > durable.
	durable int64
	// accepted counts records the log considers accepted: durable under
	// SyncAlways, written under the relaxed policies. After a failed group
	// sync the caller must truncate its in-memory run to this length.
	accepted int
	// pending holds buffered commits awaiting the next group fsync.
	pending []*Commit
	// syncing is true while the committer fsyncs off-lock.
	syncing bool
	// stalled is set after a failed group sync: appends are refused until
	// the caller realigns (rolls its state back to Accepted) and Resumes.
	stalled error
	closing bool
	// wake nudges the committer (capacity 1: one pending nudge covers every
	// append made before the committer looks again); committerDone is
	// closed when it exits. Both are nil under SyncNever.
	wake          chan struct{}
	committerDone chan struct{}
	// broken is set when an append failed AND the repair truncate failed
	// too: the on-disk tail is untrusted and the log refuses further
	// appends.
	broken error

	loadedSnapshot *Snapshot
	loadedTail     []Record
	tornBytes      int64
	// corruptRecords counts complete records dropped at Open for failing
	// their checksum or parse (default policy only; Strict refuses instead).
	corruptRecords int

	// syncEWMA is a decaying average of successful fsync latency in
	// nanoseconds, updated off-lock by the sync path and read by
	// SyncLatency (adaptive Retry-After hints).
	syncEWMA atomic.Int64

	// m records durability telemetry; nil (and silent) without
	// Options.Metrics.
	m *walMetrics
}

// logw returns the configured logger, or a discard logger.
func (l *Log) logw() *slog.Logger {
	if l.opts.Logger != nil {
		return l.opts.Logger
	}
	return obs.Discard()
}

// Open opens (creating if necessary) the log rooted at dir, loading the
// snapshot and scanning the existing records. A torn trailing record is
// truncated away; its byte count is reported by TornBytes.
func Open(dir string, opts Options) (*Log, error) {
	if opts.Sync == "" {
		opts.Sync = SyncAlways
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	start := time.Now()
	l := &Log{dir: dir, opts: opts, m: newWALMetrics(opts.Metrics)}
	l.cond = sync.NewCond(&l.mu)
	if err := l.loadSnapshot(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	if err := l.scan(); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(l.end, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.durable = l.end
	if l.loadedSnapshot != nil {
		l.accepted = l.loadedSnapshot.Len
	}
	for _, rec := range l.loadedTail {
		if rec.Seq+1 > l.accepted {
			l.accepted = rec.Seq + 1
		}
	}
	if opts.Sync != SyncNever {
		l.wake = make(chan struct{}, 1)
		l.committerDone = make(chan struct{})
		go l.committer()
	}
	l.m.recordOpen(time.Since(start), len(l.loadedTail), l.tornBytes)
	return l, nil
}

// loadSnapshot reads snapshot.json if present, verifying its whole-file
// checksum when one is recorded. A corrupt snapshot is always fatal — it
// cannot be partially used the way a log tail can be truncated — so both
// the default and the strict policy refuse to start on one.
func (l *Log) loadSnapshot() error {
	data, err := os.ReadFile(filepath.Join(l.dir, snapshotName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("wal: corrupt snapshot (rename is atomic; this is not crash damage): %w", err)
	}
	if s.CRC != 0 {
		want, err := s.Checksum()
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if want != s.CRC {
			return fmt.Errorf("wal: corrupt snapshot: checksum mismatch (stored %08x, computed %08x): %w", s.CRC, want, ErrCorrupt)
		}
	}
	l.loadedSnapshot = &s
	return nil
}

// verifyRecord parses one complete log line, checking the record checksum
// when one is present.
func verifyRecord(line []byte) (Record, error) {
	var rec Record
	if err := json.Unmarshal(bytes.TrimSpace(line), &rec); err != nil {
		return rec, fmt.Errorf("%w: parse: %v", ErrCorrupt, err)
	}
	if rec.CRC != 0 {
		want, err := rec.Checksum()
		if err != nil {
			return rec, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if want != rec.CRC {
			return rec, fmt.Errorf("%w: seq %d checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, rec.Seq, rec.CRC, want)
		}
	}
	return rec, nil
}

// scan reads the record lines, keeping the offset of the last good record.
// A final line without its newline is a torn record (crash mid-write) and
// is truncated under either policy. A COMPLETE line that fails to parse or
// fails its checksum is silent corruption: by default the log is truncated
// at the first bad record — loudly, with the corrupt-record counter bumped
// — while Options.Strict refuses to open (leaving the file untouched for
// inspection).
func (l *Log) scan() error {
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	fi, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	size := fi.Size()
	r := bufio.NewReader(l.f)
	var off int64
	var corrupt error
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// A final line without its newline is a torn record.
			break
		}
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		rec, verr := verifyRecord(line)
		if verr != nil {
			// Everything from the corrupt record on is untrusted.
			corrupt = verr
			break
		}
		l.loadedTail = append(l.loadedTail, rec)
		off += int64(len(line))
	}
	if corrupt != nil {
		if l.opts.Strict {
			return fmt.Errorf("wal: corrupt record at offset %d (strict mode, refusing to start; %d clean records precede it): %w", off, len(l.loadedTail), corrupt)
		}
		l.corruptRecords++
		l.m.recordCorrupt()
		l.logw().Error("corrupt WAL record: truncating log at first bad record",
			slog.Int64("offset", off),
			slog.Int64("dropped_bytes", size-off),
			slog.Int("clean_records", len(l.loadedTail)),
			slog.Any("error", corrupt))
	}
	l.end = off
	if off < size {
		l.tornBytes = size - off
		if err := l.f.Truncate(off); err != nil {
			return fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	return nil
}

// TakeRecovered hands over what Open found — the snapshot (nil if none)
// and the log records after it — and forgets both, so the decoded prefix
// lives only as long as the caller replaying it needs it. Later calls
// return nothing.
func (l *Log) TakeRecovered() (*Snapshot, []Record) {
	snap, tail := l.loadedSnapshot, l.loadedTail
	l.loadedSnapshot, l.loadedTail = nil, nil
	return snap, tail
}

// TornBytes reports how many trailing bytes were truncated at Open time.
func (l *Log) TornBytes() int64 { return l.tornBytes }

// Dir returns the log's root directory.
func (l *Log) Dir() string { return l.dir }

// Path returns the log file's path, the file Crash's offsets refer to.
func (l *Log) Path() string { return filepath.Join(l.dir, logName) }

// AppendBuffered writes one record into the log file and returns a Commit
// future that resolves once the record is durable. Under SyncAlways the
// fsync is delegated to the committer goroutine, which coalesces every
// record buffered while the previous sync was in flight into one group
// fsync; under the relaxed policies the returned Commit is already
// resolved (durability is best-effort by policy) and the append never
// waits on an fsync.
//
// On a write failure nothing of the record remains on disk and no future is
// returned. On a GROUP SYNC failure every commit in the batch (and every
// commit queued behind it) resolves with the error, the file is truncated
// back to the durable prefix, and the log stalls: further appends are
// refused until the caller rolls its in-memory state back to Accepted()
// events and calls Resume.
func (l *Log) AppendBuffered(ctx context.Context, rec Record) (cm *Commit, err error) {
	_, sp := obs.StartSpan(ctx, "wal.append")
	sp.SetAttr("seq", rec.Seq)
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writeLocked(sp, rec); err != nil {
		return nil, err
	}
	if l.opts.Sync != SyncAlways {
		// Relaxed policies: the record is accepted as soon as it is
		// written; under SyncInterval the committer's next tick makes it
		// durable.
		l.accepted = rec.Seq + 1
		l.m.recordAppend(true)
		return resolvedCommit(rec.Seq, nil), nil
	}
	cm = &Commit{seq: rec.Seq, ready: make(chan struct{}), ctx: ctx}
	l.pending = append(l.pending, cm)
	l.m.recordPending(len(l.pending))
	l.kick()
	return cm, nil
}

// kick wakes the committer without blocking: if a nudge is already
// pending, the committer will see this append's state too. A no-op under
// SyncNever (nil channel).
func (l *Log) kick() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// writeLocked validates, encodes and writes one record at the buffered tail,
// advancing end on success. Write-path failpoints (FailAppend,
// TornWrite) fire here; a partial write is repaired by truncating back to
// the last complete record. Called with the lock held.
func (l *Log) writeLocked(sp *obs.Span, rec Record) error {
	if l.broken != nil {
		return fmt.Errorf("wal: log is broken: %w", l.broken)
	}
	if l.stalled != nil {
		return fmt.Errorf("wal: log stalled after failed group sync (resume required): %w", l.stalled)
	}
	if l.closing {
		return fmt.Errorf("wal: log is closed")
	}
	if fp := l.opts.Failpoints; fp != nil {
		if err := fp.beforeAppend(rec.Seq); err != nil {
			l.m.recordFailpoint()
			l.m.recordAppend(false)
			return err
		}
	}
	crc, err := rec.Checksum()
	if err != nil {
		l.m.recordAppend(false)
		return fmt.Errorf("wal: %w", err)
	}
	rec.CRC = crc
	line, err := json.Marshal(rec)
	if err != nil {
		l.m.recordAppend(false)
		return fmt.Errorf("wal: %w", err)
	}
	line = append(line, '\n')
	sp.SetAttr("bytes", len(line))
	if fp := l.opts.Failpoints; fp != nil {
		if n, ok := fp.partialWrite(rec.Seq, len(line)); ok {
			// Simulate a crash mid-write: some bytes land, then the write
			// "fails". Repair by truncating back.
			l.m.recordFailpoint()
			l.m.recordAppend(false)
			_, _ = l.f.Write(line[:n])
			return l.repair(fmt.Errorf("wal: injected partial write after %d bytes", n))
		}
	}
	if _, err := l.f.Write(line); err != nil {
		l.m.recordAppend(false)
		return l.repair(fmt.Errorf("wal: %w", err))
	}
	l.end += int64(len(line))
	return nil
}

// committer is the log's one background goroutine (Open starts none under
// SyncNever). Every record fsync it issues runs off-lock, so appends keep
// flowing while the disk works:
//
//   - SyncAlways: woken by each append, it takes every queued commit as one
//     batch, fsyncs once and resolves the whole batch (group commit). A
//     failed batch sync truncates the file back to the durable prefix,
//     fails the batch and everything queued behind it, and stalls the log.
//   - SyncInterval: commits resolve at write time, so the queue stays
//     empty; once per syncInterval it fsyncs a dirty tail. A failed fsync
//     is counted and retried on the next tick — the policy tolerates loss,
//     so acknowledged bytes are never truncated and the log never stalls.
//
// It exits once the log is closing and the queue is empty.
func (l *Log) committer() {
	defer close(l.committerDone)
	var tick <-chan time.Time
	if l.opts.Sync == SyncInterval {
		t := time.NewTicker(syncInterval)
		defer t.Stop()
		tick = t.C
	}
	l.mu.Lock()
	for {
		if len(l.pending) == 0 {
			if l.closing {
				l.mu.Unlock()
				return
			}
			l.mu.Unlock()
			ticked := false
			select {
			case <-l.wake:
			case <-tick:
				ticked = true
			}
			l.mu.Lock()
			dirty := l.end > l.durable
			if !ticked || !dirty || l.broken != nil {
				continue
			}
		}
		batch := l.pending
		l.pending = nil
		l.m.recordPending(0)
		mark := l.end
		l.syncing = true
		l.mu.Unlock()

		// A group fsync span joins the FIRST submitter's trace: that
		// submitter is blocked in Wait, so its parent span is still open.
		// End the span BEFORE resolving the batch, or the trace would
		// complete with the fsync unfinished. An interval tick serves no
		// request and records no span.
		ctx := context.Background()
		if len(batch) > 0 {
			ctx = batch[0].ctx
		}
		_, sp := obs.StartSpan(ctx, "wal.fsync")
		sp.SetAttr("batch", len(batch))
		err := l.syncFile()
		sp.SetError(err)
		sp.End()

		l.mu.Lock()
		l.syncing = false
		switch {
		case err == nil:
			l.durable = mark
			if len(batch) > 0 {
				l.accepted = batch[len(batch)-1].seq + 1
				l.m.recordGroupCommit(len(batch))
			}
			for _, cm := range batch {
				cm.batch = len(batch)
				close(cm.ready)
			}
		case len(batch) == 0:
			// A failed interval fsync: syncFile counted it, the tail stays
			// dirty and the next tick retries.
		default:
			// Nothing past the durable prefix can be trusted: truncate it
			// away so the tail holds no record of an unacknowledged event,
			// then fail the batch AND everything queued behind it (their
			// bytes were just cut) and stall until the caller realigns.
			all := append(batch, l.pending...)
			l.pending = nil
			l.m.recordPending(0)
			if terr := l.f.Truncate(l.durable); terr != nil {
				l.broken = fmt.Errorf("group sync failed (%v) and truncate failed: %w", err, terr)
			} else if _, serr := l.f.Seek(l.durable, io.SeekStart); serr != nil {
				l.broken = fmt.Errorf("group sync failed (%v) and seek failed: %w", err, serr)
			}
			l.end = l.durable
			l.stalled = err
			l.m.recordAppendErrors(len(all))
			for i := len(all) - 1; i >= 0; i-- {
				all[i].err = fmt.Errorf("wal: group sync failed: %w", err)
				all[i].batch = len(batch)
				close(all[i].ready)
			}
		}
		l.cond.Broadcast()
	}
}

// syncFile is the one record-fsync routine: the committer calls it
// without holding the lock, Close for the final sync. Concurrent appends
// may be writing past the committer's captured mark; fsync covering more
// bytes than the mark is harmless (the extra records resolve with a later
// batch).
func (l *Log) syncFile() error {
	// The clock starts before the failpoints so an injected slow sync reads
	// as a slow device in the latency metrics and the Retry-After EWMA.
	start := time.Now()
	if fp := l.opts.Failpoints; fp != nil {
		fp.slowSyncDelay()
		if err := fp.syncErr(); err != nil {
			l.m.recordFailpoint()
			l.m.recordFsync(0, err)
			return err
		}
	}
	if err := l.f.Sync(); err != nil {
		l.m.recordFsync(0, err)
		return fmt.Errorf("wal: fsync: %w", err)
	}
	d := time.Since(start)
	l.m.recordFsync(d, nil)
	if old := l.syncEWMA.Load(); old == 0 {
		l.syncEWMA.Store(int64(d))
	} else {
		l.syncEWMA.Store(old - old/4 + int64(d)/4)
	}
	return nil
}

// SyncLatency returns a decaying average of recent successful fsync
// latency (zero until the first sync completes). The admission layer uses
// it, together with Pending, to derive an honest Retry-After hint.
func (l *Log) SyncLatency() time.Duration {
	return time.Duration(l.syncEWMA.Load())
}

// CorruptRecords reports how many complete-but-corrupt records were
// dropped at Open under the default (truncate) policy.
func (l *Log) CorruptRecords() int { return l.corruptRecords }

// Stalled reports the failed-group-sync error while the log is refusing
// appends, nil otherwise.
func (l *Log) Stalled() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stalled
}

// Accepted returns how many records the log considers accepted (durable
// under SyncAlways, written under relaxed policies). After a stall, the
// caller must truncate its in-memory state to exactly this many events
// before calling Resume.
func (l *Log) Accepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.accepted
}

// Resume clears a stall after the caller has rolled its in-memory state
// back to the durable prefix; subsequent appends must continue from
// Accepted().
func (l *Log) Resume() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stalled = nil
}

// Pending reports the current commit-queue depth: records buffered and
// awaiting their group fsync.
func (l *Log) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending)
}

// Flush blocks until every buffered commit has resolved (durable or
// failed). It returns the stall error if the queue drained by failing.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for (len(l.pending) > 0 || l.syncing) && l.broken == nil {
		l.cond.Wait()
	}
	if l.broken != nil {
		return fmt.Errorf("wal: log is broken: %w", l.broken)
	}
	return l.stalled
}

// repair truncates the file back to the last good record after a failed
// append. Called with the lock held.
func (l *Log) repair(cause error) error {
	if err := l.f.Truncate(l.end); err != nil {
		l.broken = fmt.Errorf("append failed (%v) and repair failed: %w", cause, err)
		return fmt.Errorf("wal: %w", l.broken)
	}
	if _, err := l.f.Seek(l.end, io.SeekStart); err != nil {
		l.broken = fmt.Errorf("append failed (%v) and repair failed: %w", cause, err)
		return fmt.Errorf("wal: %w", l.broken)
	}
	return cause
}

// Healthy returns nil when the log can accept appends.
func (l *Log) Healthy() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("wal: log is broken: %w", l.broken)
	}
	if l.stalled != nil {
		return fmt.Errorf("wal: log stalled after failed group sync: %w", l.stalled)
	}
	return nil
}

// WriteSnapshotCtx atomically replaces the snapshot and resets the log:
// after it returns, recovery replays snap.Trace and then whatever records
// land after it. A crash between the snapshot rename and the log reset is
// harmless — the leftover records have Seq < snap.Len and recovery skips
// them. The write appears as a wal.snapshot span in the caller's trace
// (e.g. inside the coordinator.submit that crossed the snapshot-every
// threshold).
//
// While buffered commits are in flight it returns ErrBusy without touching
// anything: the log reset would destroy bytes that unresolved commits still
// depend on. Callers should Flush first (or simply retry later).
func (l *Log) WriteSnapshotCtx(ctx context.Context, snap *Snapshot) (err error) {
	_, sp := obs.StartSpan(ctx, "wal.snapshot")
	sp.SetAttr("events", snap.Len)
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	l.mu.Lock()
	defer l.mu.Unlock()
	// An interval fsync in flight resolves no commits, so it is waited out
	// rather than deferred: the log reset must not race its durable-offset
	// update.
	for l.syncing && l.opts.Sync == SyncInterval {
		l.cond.Wait()
	}
	if l.broken != nil {
		return fmt.Errorf("wal: log is broken: %w", l.broken)
	}
	if l.stalled != nil {
		return fmt.Errorf("wal: log stalled after failed group sync: %w", l.stalled)
	}
	if l.closing {
		return fmt.Errorf("wal: log is closed")
	}
	if len(l.pending) > 0 || l.syncing {
		l.m.recordSnapshotDeferred()
		return ErrBusy
	}
	start := time.Now()
	size := 0
	defer func() { l.m.recordSnapshot(time.Since(start), size, err) }()
	// Stamp the whole-file checksum on a copy so the caller's snapshot is
	// not mutated.
	stamped := *snap
	stamped.CRC = 0
	crc, err := stamped.Checksum()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	stamped.CRC = crc
	data, err := json.MarshalIndent(&stamped, "", "  ")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	size = len(data)
	sp.SetAttr("bytes", size)
	tmp := filepath.Join(l.dir, snapshotName+".tmp")
	if err := writeFileSync(tmp, data); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapshotName)); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	// Reset the log: the snapshot now covers everything in it.
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: resetting log after snapshot: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.end = 0
	l.durable = 0
	return nil
}

// Close drains the commit queue, stops the committer, syncs (skipped when
// already broken or stalled) and closes the log file. Close is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closing {
		l.mu.Unlock()
		return nil
	}
	l.closing = true
	l.mu.Unlock()
	l.stopCommitter()
	l.mu.Lock()
	defer l.mu.Unlock()
	var syncErr error
	if l.broken == nil && l.stalled == nil && l.opts.Sync != SyncNever {
		syncErr = l.syncFile()
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return syncErr
}

// stopCommitter wakes the committer and waits for it to exit; closing must
// already be set. A no-op under SyncNever.
func (l *Log) stopCommitter() {
	if l.committerDone != nil {
		l.kick()
		<-l.committerDone
	}
}

// Crash simulates a hard process kill for fault drills: every buffered
// commit resolves with ErrCrashed (its record may or may not be durable —
// exactly the ambiguity a power cut leaves), the committer is stopped, and
// the file is closed WITHOUT a final fsync. It returns the durable offset
// (covered by the last successful fsync) and the written size at crash
// time, so a harness can simulate page-cache loss by truncating the file
// anywhere in [durable, size] before reopening the directory with Open.
func (l *Log) Crash() (durable, size int64, err error) {
	l.mu.Lock()
	if l.closing {
		durable, size = l.durable, l.end
		l.mu.Unlock()
		return durable, size, nil
	}
	l.closing = true
	// Fail the queued commits that no fsync has picked up. A batch the
	// committer already holds off-lock resolves on its own: if its fsync
	// completed before the "kill", that durability is real and the commit
	// rightly reports success.
	pending := l.pending
	l.pending = nil
	l.m.recordPending(0)
	for i := len(pending) - 1; i >= 0; i-- {
		pending[i].err = ErrCrashed
		close(pending[i].ready)
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	l.stopCommitter()
	l.mu.Lock()
	defer l.mu.Unlock()
	durable, size = l.durable, l.end
	if cerr := l.f.Close(); cerr != nil {
		return durable, size, fmt.Errorf("wal: %w", cerr)
	}
	return durable, size, nil
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
