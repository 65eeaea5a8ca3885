// Package wal provides the durability substrate for the master server: a
// write-ahead log of accepted events, which is the run's only record. The
// log is a sequence of JSON lines, one Record per accepted event (reusing
// trace.EventRecord for the payload), so a crashed coordinator is
// reconstructed by replaying it. Torn trailing records — the signature of a
// crash mid-write — are truncated on open, never fatal.
//
// Open reads the log file through one reused 64 KiB buffer, counting its
// lines first, and hands each verified record to the caller's Replayer as
// an Entry, keeping none itself. A line in the fixed shape encodeRecord
// writes is decoded without reflection: its CRC is checked first, over the
// line's own bytes, then the fields are parsed in their fixed order
// straight into the seq, the event and the idempotency key. The event of
// a rule of the replayer's program is laid out in the rule's slots: each
// key of the valuation is matched against the rule's sorted variable
// names, and the values go into one arena of slots per recovery, sized
// from the line count. Any other line — a legacy one without a CRC, a
// string with an escape, a key in another case or order, a CRC that does
// not match — goes through encoding/json and the same line checksum
// (verifyRecord), so every line is accepted or rejected, and decoded,
// exactly as that path alone would do it.
//
// Beside the log, snapshot.json holds a guarded run's guards: WriteGuards
// writes it before the run's first event, as a snapshot of length 0. In
// data dirs written by earlier versions it holds a snapshot of a run
// prefix, and the log the events after it; Open still loads both.
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
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"collabwf/internal/data"
	"collabwf/internal/jsonw"
	"collabwf/internal/obs"
	"collabwf/internal/program"
	"collabwf/internal/rule"
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

// ErrInUse is returned by Open when another open log holds dir: a second
// server on a live data dir, in this process or another. That open has
// neither truncated nor replayed anything.
var ErrInUse = errors.New("wal: data dir in use")

// Record is one durable entry: the event's absolute position in the run
// plus its serialized form. The sequence number makes replay idempotent —
// records already covered by a legacy snapshot (a crash could land between
// its rename and the log reset) are skipped on recovery.
type Record struct {
	Seq   int               `json:"seq"`
	Event trace.EventRecord `json:"event"`
	// Fired, when set, is the event itself, and Event is not read: the
	// line is written from its rule's sorted variable names and its slot
	// values, the bytes Event = trace.EncodeEvent(Fired) would give.
	Fired *program.Event `json:"-"`
	// Idem is the submitter's idempotency key, persisted so that a recovered
	// coordinator can recognise a client retry of an event that was durable
	// before the crash. Empty for server-generated or keyless submissions.
	Idem string `json:"idem,omitempty"`
	// CRC is the CRC32C of the record's compact JSON encoding with CRC
	// itself absent (see encodeRecord). Zero/absent means unchecksummed —
	// records written by pre-checksum versions still replay.
	CRC uint32 `json:"crc,omitempty"`
}

// crcField opens the CRC field of an encoded record. CRC is the record's
// last field, so a checksummed line ends in crcField, the decimal CRC and
// the closing brace.
const crcField = `,"crc":`

var closeBrace = []byte{'}'}

// encodeRecord returns rec's log line, newline included: the compact JSON
// encoding of rec with CRC set to the CRC32C of its encoding with CRC
// absent. The fixed shape decodeFixed reads is appended directly, byte for
// byte what encoding/json writes — fields in declaration order, valuation
// keys sorted, strings escaped by jsonw — then the CRC field is spliced in
// before the closing brace. A record of a fired event is written from the
// event's slots, whose variables are sorted already; only a record given
// as a map sorts its keys.
func encodeRecord(rec Record) []byte {
	name, val := rec.Event.Rule, rec.Event.Valuation
	var names []string
	var slots []data.Value
	var keyBuf [8]string
	if e := rec.Fired; e != nil {
		name, names, slots = e.Rule.Name, e.Rule.Layout().Vars, e.Vals()
	} else {
		names = keyBuf[:0]
		for k := range val {
			names = append(names, k)
		}
		slices.Sort(names)
	}
	value := func(i int) string {
		if rec.Fired != nil {
			return string(slots[i])
		}
		return val[names[i]]
	}
	// Unescaped, the line takes at most 93 bytes beside its strings (a
	// 20-digit seq, a 10-digit CRC, a null valuation), and 6 per binding.
	size := 93 + len(name) + len(rec.Idem)
	for i, k := range names {
		size += len(k) + len(value(i)) + 6
	}
	b := make([]byte, 0, size)
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(rec.Seq), 10)
	b = append(b, `,"event":{"rule":`...)
	b = jsonw.AppendString(b, name)
	b = append(b, `,"valuation":`...)
	if rec.Fired == nil && val == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '{')
		for i, k := range names {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonw.AppendString(b, k)
			b = append(b, ':')
			b = jsonw.AppendString(b, value(i))
		}
		b = append(b, '}')
	}
	b = append(b, '}')
	if rec.Idem != "" {
		b = append(b, `,"idem":`...)
		b = jsonw.AppendString(b, rec.Idem)
	}
	b = append(b, '}')
	crc := crc32.Checksum(b, castagnoli)
	if crc == 0 {
		// A zero CRC is omitted like any zero value.
		return append(b, '\n')
	}
	b = append(b[:len(b)-1], crcField...)
	b = strconv.AppendUint(b, uint64(crc), 10)
	return append(b, '}', '\n')
}

// lineChecksum recomputes the CRC of a record line (surrounding space
// trimmed) whose parsed CRC is crc: the CRC32C of the line with its
// trailing CRC field cut, the bytes encodeRecord checksummed. ok is false
// when the line does not end in that field.
func lineChecksum(line []byte, crc uint32) (sum uint32, ok bool) {
	var buf [len(crcField) + 11]byte
	tail := strconv.AppendUint(append(buf[:0], crcField...), uint64(crc), 10)
	body, ok := bytes.CutSuffix(line, append(tail, '}'))
	if !ok {
		return 0, false
	}
	return crc32.Update(crc32.Checksum(body, castagnoli), castagnoli, closeBrace), true
}

// IdemEntry maps one idempotency key to the index of the event it produced.
// A legacy snapshot carries the window of keys whose records its log reset
// dropped; recovery reads it before the keyed records of the log.
type IdemEntry struct {
	Key   string `json:"key"`
	Index int    `json:"index"`
}

// Snapshot is the content of snapshot.json: the installed guards and, in
// data dirs written by earlier versions, the replayable trace of the first
// Len events. WriteGuards writes it with Len 0 and an empty trace. It is
// written atomically (temp file + rename), so a reader sees either the
// previous or the new file, never a torn one.
type Snapshot struct {
	Workflow string         `json:"workflow,omitempty"`
	Guards   map[string]int `json:"guards,omitempty"`
	Len      int            `json:"len"`
	Trace    *trace.Trace   `json:"trace"`
	// Idem is a legacy snapshot's idempotency-key window.
	Idem []IdemEntry `json:"idem,omitempty"`
	// CRC is the whole-file checksum: the CRC32C of the snapshot's COMPACT
	// JSON encoding with CRC absent, so it is independent of indentation.
	// Zero/absent means unchecksummed (pre-checksum snapshots still load).
	CRC uint32 `json:"crc,omitempty"`
}

// Checksum computes the snapshot's CRC32C the same way records are
// checksummed: over the compact encoding with the CRC field zeroed.
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
	// registry and records appends, fsyncs, recovery and injected faults.
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
// wal.log (JSON lines of Records) beside the read-only snapshot.json. Safe
// for concurrent use.
type Log struct {
	mu   sync.Mutex
	cond *sync.Cond // signals Flush waiters; tied to mu
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

	tornBytes int64
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

// A Replayer rebuilds state from what Open recovers, while Open reads it.
// Program names the program whose rules the records fire (nil: none), so
// each record is decoded into its rule's slots. Start receives the
// snapshot (nil when the dir holds none) and the number of complete lines
// in the log, a bound on the records to come; Record then receives each
// verified record of the clean prefix, in log order, and may keep its
// event and valuation. The first error either returns ends the replay:
// Open still handles a torn or corrupt tail as it would have, then closes
// the log and returns that error.
type Replayer interface {
	Program() *program.Program
	Start(snap *Snapshot, lines int) error
	Record(e Entry) error
}

// Open opens (creating if necessary) the log rooted at dir, loading the
// snapshot and scanning the existing records into rp (nil = verify only).
// A torn trailing record is truncated away; its byte count is reported by
// TornBytes. The log holds an exclusive lock on wal.log until Close or
// Crash: while it does, a second Open of dir fails with ErrInUse.
func Open(dir string, opts Options, rp Replayer) (*Log, error) {
	if opts.Sync == "" {
		opts.Sync = SyncAlways
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	start := time.Now()
	l := &Log{dir: dir, opts: opts, m: newWALMetrics(opts.Metrics)}
	l.cond = sync.NewCond(&l.mu)
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	// One log per dir: the lock is taken before anything is read, so a
	// second opener touches nothing. Close and Crash release it.
	if err := lockFile(f); err != nil {
		f.Close()
		if errors.Is(err, ErrInUse) {
			return nil, fmt.Errorf("%w: %s: %s is locked by another open log", ErrInUse, dir, logName)
		}
		return nil, fmt.Errorf("wal: locking %s: %w", logName, err)
	}
	snap, err := loadSnapshot(dir)
	if err != nil {
		f.Close()
		return nil, err
	}
	l.f = f
	if snap != nil {
		l.accepted = snap.Len
	}
	records, replayErr, err := l.scan(snap, rp)
	if err == nil {
		err = replayErr
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(l.end, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.durable = l.end
	if opts.Sync != SyncNever {
		l.wake = make(chan struct{}, 1)
		l.committerDone = make(chan struct{})
		go l.committer()
	}
	l.m.recordOpen(time.Since(start), records, l.tornBytes)
	return l, nil
}

// loadSnapshot reads snapshot.json if present, verifying its whole-file
// checksum when one is recorded. A corrupt snapshot is always fatal — it
// cannot be partially used the way a log tail can be truncated — so both
// the default and the strict policy refuse to start on one.
func loadSnapshot(dir string) (*Snapshot, error) {
	data, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("wal: corrupt snapshot (rename is atomic; this is not crash damage): %w", err)
	}
	if s.CRC != 0 {
		want, err := s.Checksum()
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if want != s.CRC {
			return nil, fmt.Errorf("wal: corrupt snapshot: checksum mismatch (stored %08x, computed %08x): %w", s.CRC, want, ErrCorrupt)
		}
	}
	return &s, nil
}

// verifyRecord parses one complete log line with encoding/json, checking
// the record checksum when one is present: the decoder's path for lines
// outside the fixed shape. The checksum is taken over the line's own
// bytes, so a line that parses to the same record but was not written as
// encoded (a field name in another case, say) fails it.
func verifyRecord(line []byte) (Record, error) {
	line = bytes.TrimSpace(line)
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, fmt.Errorf("%w: parse: %v", ErrCorrupt, err)
	}
	if rec.CRC != 0 {
		got, ok := lineChecksum(line, rec.CRC)
		if !ok {
			return rec, fmt.Errorf("%w: seq %d: checksum %08x is not the line's last field", ErrCorrupt, rec.Seq, rec.CRC)
		}
		if got != rec.CRC {
			return rec, fmt.Errorf("%w: seq %d checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, rec.Seq, rec.CRC, got)
		}
	}
	return rec, nil
}

// scanChunk is the size of the buffer scan reads the log through.
const scanChunk = 64 << 10

// scan reads the log file through one reused buffer and decodes its record
// lines in order, handing them to rp (started with snap) and keeping the
// offset of the last good record. A first pass counts the lines, so rp and
// the decoder are sized once. A final line without its newline is a torn
// record (crash mid-write) and is truncated under either policy. A
// COMPLETE line that fails to parse or fails its checksum is silent
// corruption: by default the log is truncated at the first bad record —
// loudly, with the corrupt-record counter bumped — while Options.Strict
// refuses to open (leaving the file untouched for inspection). A replay
// error stops the replay but not the scan, so the tail is handled the same
// either way; it is returned as replayErr, and the log's own failures as
// err.
func (l *Log) scan(snap *Snapshot, rp Replayer) (records int, replayErr, err error) {
	fi, err := l.f.Stat()
	if err != nil {
		return 0, nil, fmt.Errorf("wal: %w", err)
	}
	size := fi.Size()
	buf := make([]byte, min(size, scanChunk))
	lines := 0
	for at := int64(0); at < size; {
		n, err := l.f.ReadAt(buf[:min(int64(len(buf)), size-at)], at)
		if err != nil && err != io.EOF {
			return 0, nil, fmt.Errorf("wal: %w", err)
		}
		if n == 0 {
			return 0, nil, fmt.Errorf("wal: %w", io.ErrUnexpectedEOF)
		}
		lines += bytes.Count(buf[:n], []byte{'\n'})
		at += int64(n)
	}
	var rules []*rule.Rule
	if rp != nil {
		if p := rp.Program(); p != nil {
			rules = p.Rules()
		}
		replayErr = rp.Start(snap, lines)
	}
	d := newDecoder(rules, lines)
	// buf[start:end] holds the file's bytes from off, the start of the
	// next line; read is the offset of the next byte to read.
	var off int64
	start, end := 0, 0
	read := int64(0)
	var corrupt error
	for {
		n := bytes.IndexByte(buf[start:end], '\n')
		if n < 0 {
			if read == size {
				// A final line without its newline is a torn record.
				break
			}
			end = copy(buf, buf[start:end])
			start = 0
			if end == len(buf) {
				// A line longer than the buffer: grow it.
				buf = append(buf, make([]byte, len(buf))...)
			}
			m, err := l.f.ReadAt(buf[end:min(int64(len(buf)), int64(end)+size-read)], read)
			if err != nil && err != io.EOF {
				return 0, nil, fmt.Errorf("wal: %w", err)
			}
			if m == 0 {
				return 0, nil, fmt.Errorf("wal: %w", io.ErrUnexpectedEOF)
			}
			end += m
			read += int64(m)
			continue
		}
		line := buf[start : start+n+1]
		e, verr := d.decode(line)
		if verr != nil {
			// Everything from the corrupt record on is untrusted.
			corrupt = verr
			break
		}
		records++
		l.accepted = max(l.accepted, e.Seq+1)
		if rp != nil && replayErr == nil {
			replayErr = rp.Record(e)
		}
		start += len(line)
		off += int64(len(line))
	}
	if corrupt != nil {
		if l.opts.Strict {
			return 0, nil, fmt.Errorf("wal: corrupt record at offset %d (strict mode, refusing to start; %d clean records precede it): %w", off, records, corrupt)
		}
		l.corruptRecords++
		l.m.recordCorrupt()
		l.logw().Error("corrupt WAL record: truncating log at first bad record",
			slog.Int64("offset", off),
			slog.Int64("dropped_bytes", size-off),
			slog.Int("clean_records", records),
			slog.Any("error", corrupt))
	}
	l.end = off
	if l.end < size {
		l.tornBytes = size - l.end
		if err := l.f.Truncate(l.end); err != nil {
			return 0, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return 0, nil, fmt.Errorf("wal: %w", err)
		}
	}
	return records, replayErr, nil
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
	line := encodeRecord(rec)
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
	// The clock starts before the failpoints so an injected slow or held
	// sync reads as a slow device in the latency metrics and the
	// Retry-After EWMA.
	start := time.Now()
	if fp := l.opts.Failpoints; fp != nil {
		fp.delaySync()
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

// WriteGuards stores a run's guards in dir's snapshot.json, as a snapshot
// of length 0 with an empty trace, atomically: temp file, fsync, rename,
// directory fsync. A run's guards are installed together, before its
// first event, so this file is written once, never describes events, and
// the log is never touched.
func WriteGuards(dir, workflow string, guards map[string]int) error {
	snap := &Snapshot{Workflow: workflow, Guards: guards, Trace: &trace.Trace{Workflow: workflow}}
	crc, err := snap.Checksum()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	snap.CRC = crc
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	tmp := filepath.Join(dir, snapshotName+".tmp")
	if err := writeFileSync(tmp, data); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotName)); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
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
