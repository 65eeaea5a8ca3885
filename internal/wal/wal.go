// Package wal provides the durability substrate for the master server: a
// write-ahead log of accepted events, which is the run's only record. The
// log is a sequence of JSON lines: a header, then one record per accepted
// event, so a crashed coordinator is reconstructed by replaying it. Torn
// trailing records — the signature of a crash mid-write — are truncated on
// open, never fatal.
//
// The header is the log's first line and its format stamp: it holds the
// format number, the run's workflow and its transparency guards, and a
// checksum. Open writes it when it creates a log, syncing the file and
// every directory entry that leads to it, so a created run survives a
// power cut. A corrupt header is fatal under either policy: the guards
// have no other record. A dir holding a log without the header, or a
// snapshot.json, was written by an earlier version: Open refuses it with
// ErrLegacy, touching nothing, and `wfrun -upgrade` rewrites it offline
// from ReadLegacy's decoding.
//
// Open reads the log file through one reused 64 KiB buffer, counting its
// lines first, and hands each verified record to the caller's Replayer as
// an Entry, keeping none itself. Every record line has the one shape
// encodeRecord writes, which is decoded without reflection: its CRC is
// checked first, over the line's own bytes, then the fields are parsed in
// their fixed order straight into the seq, the event and the idempotency
// key. The event of a rule the replayer knows is laid out in the rule's
// slots: the line names the rule's variables in its sorted order, and the
// values go into one arena of slots per recovery, sized from the line
// count. A line of any other shape, or with a CRC that does not match, is
// corrupt.
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
// I/O error can never leave a sequence gap. Under "never" commits resolve
// at write time and no goroutine runs.
package wal

import (
	"bytes"
	"context"
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

	"collabwf/internal/jsonw"
	"collabwf/internal/obs"
	"collabwf/internal/program"
	"collabwf/internal/rule"
)

// castagnoli returns the CRC32C polynomial table shared by header and
// record checksums (the same polynomial storage systems use for on-disk
// pages). It is built on first use, so a process that never checksums
// builds none.
var castagnoli = sync.OnceValue(func() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) })

// SyncPolicy selects when the log fsyncs appended records.
type SyncPolicy string

const (
	// SyncAlways fsyncs after every append: an accepted event survives any
	// crash. This is the default.
	SyncAlways SyncPolicy = "always"
	// SyncNever leaves syncing to the OS page cache.
	SyncNever SyncPolicy = "never"
)

// ParsePolicy converts a flag string into a SyncPolicy.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncAlways, SyncNever:
		return SyncPolicy(s), nil
	}
	return "", fmt.Errorf("wal: unknown fsync policy %q (want always or never)", s)
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
// record instead. A corrupt header is refused under either policy.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrInUse is returned by Open when another open log holds dir: a second
// server on a live data dir, in this process or another. That open has
// neither truncated nor replayed anything.
var ErrInUse = errors.New("wal: data dir in use")

// ErrLegacy is returned by Open for a dir written by an earlier version: it
// holds a snapshot.json, or a log without the header. That open has
// neither truncated nor replayed anything; `wfrun -upgrade` rewrites the
// dir in this format.
var ErrLegacy = errors.New("wal: legacy data dir")

// Header is the log's first line beside its format stamp: the run's
// workflow and the transparency guards it was created with.
type Header struct {
	Workflow string         `json:"workflow,omitempty"`
	Guards   map[string]int `json:"guards,omitempty"`
}

// format is the log format this version writes and reads, the header's
// "wal" field; headerOpen opens every header line and no record line.
const (
	format     = 1
	headerOpen = `{"wal":`
)

// encodeHeader returns h's header line, newline included, in the shape
// encoding/json writes: {"wal":1[,"workflow":"W"][,"guards":{"p":h,…}],"crc":C}.
func encodeHeader(h Header) []byte {
	b := strconv.AppendInt([]byte(headerOpen), format, 10)
	if h.Workflow != "" {
		b = jsonw.AppendString(append(b, `,"workflow":`...), h.Workflow)
	}
	if len(h.Guards) > 0 {
		peers := make([]string, 0, len(h.Guards))
		for peer := range h.Guards {
			peers = append(peers, peer)
		}
		slices.Sort(peers)
		b = append(b, `,"guards":{`...)
		for i, peer := range peers {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(jsonw.AppendString(b, peer), ':'), int64(h.Guards[peer]), 10)
		}
		b = append(b, '}')
	}
	return appendCRC(append(b, '}'))
}

// parseHeader verifies and decodes a header line, its newline cut.
func parseHeader(line []byte) (h Header, err error) {
	body, err := checkCRC(line)
	if err != nil {
		return h, err
	}
	p := fixedParser{b: body}
	if !p.lit(headerOpen) {
		return h, errShape
	}
	if f, ok := parseUint(p.digits(), 9); !ok || f != format {
		return h, fmt.Errorf("wal: log format %d, this version reads format %d", f, format)
	}
	if p.lit(`,"workflow":`) {
		w, ok := p.str(nil)
		if !ok {
			return h, errShape
		}
		h.Workflow = string(w)
	}
	if p.lit(`,"guards":{`) {
		h.Guards = make(map[string]int)
		for j := 0; !p.lit(`}`); j++ {
			if j > 0 && !p.lit(`,`) {
				return h, errShape
			}
			peer, ok := p.str(nil)
			if !ok || !p.lit(`:`) {
				return h, errShape
			}
			v, ok := parseUint(p.digits(), 9)
			if !ok {
				return h, errShape
			}
			h.Guards[string(peer)] = int(v)
		}
	}
	if len(p.b) != 0 {
		return h, errShape
	}
	return h, nil
}

// Record is one durable entry: the event's absolute position in the run,
// the event and the submitter's idempotency key.
type Record struct {
	Seq   int
	Event *program.Event
	// Idem is the submitter's idempotency key, persisted so that a recovered
	// coordinator can recognise a client retry of an event that was durable
	// before the crash. Empty for server-generated or keyless submissions.
	Idem string
}

// crcField opens the CRC field of an encoded line. CRC is the line's last
// field, so a line ends in crcField, the decimal CRC and the closing brace.
const crcField = `,"crc":`

var closeBrace = []byte{'}'}

// appendCRC closes b, a JSON object, with its CRC field and the newline:
// the CRC32C of b itself.
func appendCRC(b []byte) []byte {
	crc := crc32.Checksum(b, castagnoli())
	b = append(b[:len(b)-1], crcField...)
	b = strconv.AppendUint(b, uint64(crc), 10)
	return append(b, '}', '\n')
}

// encodeRecord returns rec's log line, newline included:
//
//	{"seq":N,"event":{"rule":"R","valuation":{"k":"v",…}}[,"idem":"K"],"crc":C}
//
// appended directly, byte for byte what encoding/json writes for the
// record — the valuation's keys are the rule's variables, sorted already,
// and strings are escaped by jsonw — with the CRC field of the bytes
// before it.
func encodeRecord(rec Record) []byte {
	name, names, vals := rec.Event.Rule.Name, rec.Event.Rule.Layout().Vars, rec.Event.Vals()
	// Unescaped, the line takes at most 91 bytes beside its strings (a
	// 20-digit seq, a 10-digit CRC), and 6 per binding.
	size := 91 + len(name) + len(rec.Idem)
	for i, k := range names {
		size += len(k) + len(vals[i]) + 6
	}
	b := make([]byte, 0, size)
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(rec.Seq), 10)
	b = append(b, `,"event":{"rule":`...)
	b = jsonw.AppendString(b, name)
	b = append(b, `,"valuation":{`...)
	for i, k := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonw.AppendString(b, k)
		b = append(b, ':')
		b = jsonw.AppendString(b, string(vals[i]))
	}
	b = append(b, "}}"...)
	if rec.Idem != "" {
		b = append(b, `,"idem":`...)
		b = jsonw.AppendString(b, rec.Idem)
	}
	return appendCRC(append(b, '}'))
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
// batch has been fsynced (or the group sync failed). Appends under
// SyncNever return an already-resolved Commit.
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
// SyncNever). Only valid after Wait or Done.
func (c *Commit) BatchSize() int { return c.batch }

// resolvedCommit returns a Commit that is already done.
func resolvedCommit(seq int, err error) *Commit {
	ch := make(chan struct{})
	close(ch)
	return &Commit{seq: seq, ready: ch, err: err, batch: 1}
}

// Log is an append-only write-ahead log rooted at a directory, holding
// wal.log (JSON lines: the header, then Records). Safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	cond *sync.Cond // signals Flush waiters; tied to mu
	dir  string
	f    *os.File
	opts Options
	// top is the directory whose entry anchors dir: the parent of the
	// topmost directory Open created, or "" for dir's parent.
	top string

	// end is the offset of the end of the last fully-written record; a
	// failed append truncates back to it.
	end int64
	// durable is the offset covered by the last successful fsync; a failed
	// group sync truncates the file back to it.
	durable int64
	// accepted counts records the log considers accepted: durable under
	// SyncAlways, written under SyncNever. After a failed group
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

	// stamped is set when Open wrote the header.
	stamped   bool
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
// Rules names the rules the records fire (none: no record is decoded into
// an event). Start receives the log's header and the number of complete
// record lines, a bound on the records to come; Record then receives each
// verified record of the clean prefix, in log order, and may keep its
// event. The first error either returns ends the replay: Open still
// handles a torn or corrupt tail as it would have, then closes the log and
// returns that error.
type Replayer interface {
	Rules() []*rule.Rule
	Start(h Header, lines int) error
	Record(e Entry) error
}

// Open opens the log rooted at dir and scans its records into rp (nil =
// verify only). A new log — dir holds none, or one whose creation was cut
// before its header's newline — is created holding h's header, and so is
// a log holding no record whose header names no guards, when h names some:
// a run takes guards only before its first event. A torn trailing record is
// truncated away; its byte count is reported by TornBytes. The log holds an
// exclusive lock on wal.log until Close or Crash: while it does, a second
// Open of dir fails with ErrInUse.
func Open(dir string, h Header, opts Options, rp Replayer) (*Log, error) {
	if opts.Sync == "" {
		opts.Sync = SyncAlways
	}
	// A dir holding snapshot.json is legacy whatever its log holds; refuse
	// it before the log file is created.
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err == nil {
		return nil, legacyErr(dir, snapshotName)
	}
	start := time.Now()
	l := &Log{dir: dir, opts: opts, m: newWALMetrics(opts.Metrics)}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		l.top = filepath.Dir(dir)
		for _, err := os.Stat(l.top); os.IsNotExist(err) && filepath.Dir(l.top) != l.top; _, err = os.Stat(l.top) {
			l.top = filepath.Dir(l.top)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
	}
	l.cond = sync.NewCond(&l.mu)
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	// One log per dir: the lock is taken before anything is read, so a
	// second opener touches nothing. Close and Crash release it.
	if err := lockLog(dir, f); err != nil {
		return nil, err
	}
	l.f = f
	records, replayErr, err := l.scan(h, rp)
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

// lockLog takes the lock of dir's log file f, closing f when it cannot.
func lockLog(dir string, f *os.File) error {
	err := lockFile(f)
	if err == nil {
		return nil
	}
	f.Close()
	if errors.Is(err, ErrInUse) {
		return fmt.Errorf("%w: %s: %s is locked by another open log", ErrInUse, dir, logName)
	}
	return fmt.Errorf("wal: locking %s: %w", logName, err)
}

// legacyErr is Open's refusal of a dir written by an earlier version.
func legacyErr(dir, why string) error {
	return fmt.Errorf("%w: %s holds %s; stop the server and upgrade the dir offline with `wfrun -spec SPEC -upgrade %s`",
		ErrLegacy, dir, why, dir)
}

// stamp makes the file hold h's header alone. Unless the policy is
// SyncNever, the file is then synced, and so is each directory from the
// log's up to top, so the header and the entries leading to it survive a
// power cut; on failure the file is emptied again, and a later Open
// stamps it anew.
func (l *Log) stamp(h Header) error {
	line := encodeHeader(h)
	err := l.f.Truncate(0)
	if err == nil {
		_, err = l.f.WriteAt(line, 0)
	}
	if err == nil && l.opts.Sync != SyncNever {
		err = l.f.Sync()
	}
	top := l.top
	if top == "" {
		top = filepath.Dir(l.dir)
	}
	for d := filepath.Clean(l.dir); err == nil && l.opts.Sync != SyncNever; d = filepath.Dir(d) {
		if fp := l.opts.Failpoints; fp != nil {
			err = fp.dirSyncErr()
		}
		if err == nil {
			err = syncDir(d)
		}
		if d == top || filepath.Dir(d) == d {
			break
		}
	}
	if err != nil {
		l.f.Truncate(0)
		return fmt.Errorf("wal: writing header: %w", err)
	}
	l.end, l.stamped = int64(len(line)), true
	return nil
}

// Stamped reports whether Open wrote the log's header, creating the log or
// giving a record-less unguarded one the guards of its header argument.
func (l *Log) Stamped() bool { return l.stamped }

// scanChunk is the size of the buffer scan reads the log through.
const scanChunk = 64 << 10

// scan reads the header, stamping the log when Open's rule says so, then
// reads the log file through one reused buffer and decodes its record
// lines in order, handing them to rp (started with the header in force)
// and keeping the offset of the last good record. A first pass counts the
// lines, so rp and the decoder are sized once. A final line without its
// newline is a torn record (crash mid-write) and is truncated under either
// policy. A COMPLETE line that fails to parse or fails its checksum is
// silent corruption: by default the log is truncated at the first bad
// record — loudly, with the corrupt-record counter bumped — while
// Options.Strict refuses to open (leaving the file untouched for
// inspection). A replay error stops the replay but not the scan, so the
// tail is handled the same either way; it is returned as replayErr, and
// the log's own failures as err.
func (l *Log) scan(h Header, rp Replayer) (records int, replayErr, err error) {
	fi, err := l.f.Stat()
	if err != nil {
		return 0, nil, fmt.Errorf("wal: %w", err)
	}
	size := fi.Size()
	buf := make([]byte, min(size, scanChunk))
	lines := 0
	// hdrEnd is the offset of the first newline, the end of the header.
	hdrEnd := int64(-1)
	for at := int64(0); at < size; {
		n, err := l.f.ReadAt(buf[:min(int64(len(buf)), size-at)], at)
		if err != nil && err != io.EOF {
			return 0, nil, fmt.Errorf("wal: %w", err)
		}
		if n == 0 {
			return 0, nil, fmt.Errorf("wal: %w", io.ErrUnexpectedEOF)
		}
		if i := bytes.IndexByte(buf[:n], '\n'); hdrEnd < 0 && i >= 0 {
			hdrEnd = at + int64(i)
		}
		lines += bytes.Count(buf[:n], []byte{'\n'})
		at += int64(n)
	}
	// The first line, or what there is of a torn one, is read into buf;
	// the header keeps none of it.
	n := min(size, int64(len(headerOpen)))
	if hdrEnd >= 0 {
		n = hdrEnd
	}
	if int64(len(buf)) < n {
		buf = make([]byte, n)
	}
	first := buf[:n]
	if _, err := l.f.ReadAt(first, 0); err != nil && err != io.EOF {
		return 0, nil, fmt.Errorf("wal: %w", err)
	}
	switch {
	case hdrEnd < 0 && (bytes.HasPrefix(first, []byte(headerOpen)) || bytes.HasPrefix([]byte(headerOpen), first)):
		// No log yet, or a header torn by a crash during creation.
		if err := l.stamp(h); err != nil {
			return 0, nil, err
		}
		l.tornBytes = size
	case !bytes.HasPrefix(first, []byte(headerOpen)):
		return 0, nil, legacyErr(l.dir, "a log without a format header")
	default:
		stored, err := parseHeader(first)
		if err != nil {
			return 0, nil, fmt.Errorf("wal: corrupt header (refusing to start under either policy): %w", err)
		}
		if lines > 1 || len(stored.Guards) > 0 || len(h.Guards) == 0 {
			h = stored
			break
		}
		// A run takes guards before its first event: restamp, dropping
		// any torn record.
		if err := l.stamp(h); err != nil {
			return 0, nil, err
		}
		l.tornBytes = size - hdrEnd - 1
	}
	lines = max(lines-1, 0)
	var rules []*rule.Rule
	if rp != nil {
		rules = rp.Rules()
		replayErr = rp.Start(h, lines)
	}
	if l.stamped {
		return 0, replayErr, nil // nothing follows the new header
	}
	d := newDecoder(rules, lines)
	// buf[start:end] holds the file's bytes from off, the start of the
	// next line; read is the offset of the next byte to read.
	off := hdrEnd + 1
	start, end := 0, 0
	read := off
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

// Path returns the log file's path, the file Crash's offsets refer to.
func (l *Log) Path() string { return filepath.Join(l.dir, logName) }

// AppendBuffered writes one record into the log file and returns a Commit
// future that resolves once the record is durable. Under SyncAlways the
// fsync is delegated to the committer goroutine, which coalesces every
// record buffered while the previous sync was in flight into one group
// fsync; under SyncNever the returned Commit is already resolved
// (durability is left to the OS) and the append never waits on an fsync.
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
	if l.opts.Sync == SyncNever {
		// The record is accepted as soon as it is written.
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

// committer is the log's one background goroutine, run under SyncAlways
// only. Woken by each append, it takes every queued commit as one batch,
// fsyncs once off-lock, so appends keep flowing while the disk works, and
// resolves the whole batch (group commit). A failed batch sync truncates
// the file back to the durable prefix, fails the batch and everything
// queued behind it, and stalls the log. It exits once the log is closing
// and the queue is empty.
func (l *Log) committer() {
	defer close(l.committerDone)
	l.mu.Lock()
	for {
		for len(l.pending) == 0 {
			if l.closing {
				l.mu.Unlock()
				return
			}
			l.mu.Unlock()
			<-l.wake
			l.mu.Lock()
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
		// complete with the fsync unfinished.
		_, sp := obs.StartSpan(batch[0].ctx, "wal.fsync")
		sp.SetAttr("batch", len(batch))
		err := l.syncFile()
		sp.SetError(err)
		sp.End()

		l.mu.Lock()
		l.syncing = false
		if err == nil {
			l.durable = mark
			l.accepted = batch[len(batch)-1].seq + 1
			l.m.recordGroupCommit(len(batch))
			for _, cm := range batch {
				cm.batch = len(batch)
				close(cm.ready)
			}
		} else {
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
// under SyncAlways, written under SyncNever). After a stall, the
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

// syncDir fsyncs a directory so an entry created or renamed inside it is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
