package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/program"
	"collabwf/internal/rule"
)

// ev is the event of the test rule name binding its variables, in their
// sorted order, to vals.
func ev(name string, vals ...string) *program.Event {
	var rl *rule.Rule
	for _, r := range testRules() {
		if r.Name == name {
			rl = r
		}
	}
	slots := make([]data.Value, len(vals))
	for i, v := range vals {
		slots[i] = data.Value(v)
	}
	e := program.MakeEvent(rl, slots)
	return &e
}

func rec(seq int) Record {
	return Record{Seq: seq, Event: ev("r", fmt.Sprintf("v%d", seq))}
}

// recovered collects what Open replays.
type recovered struct {
	header  Header
	entries []Entry
}

func (r *recovered) Rules() []*rule.Rule { return testRules() }

func (r *recovered) Start(h Header, _ int) error {
	r.header = h
	return nil
}

func (r *recovered) Record(e Entry) error {
	r.entries = append(r.entries, e)
	return nil
}

// openRecovered opens the log in dir, collecting what it replays.
func openRecovered(dir string, opts Options) (*Log, *recovered, error) {
	got := &recovered{}
	l, err := Open(dir, Header{}, opts, got)
	return l, got, err
}

// appendDurable appends r through the one append path and waits for its
// commit to resolve.
func appendDurable(l *Log, r Record) error {
	cm, err := l.AppendBuffered(context.Background(), r)
	if err != nil {
		return err
	}
	return cm.Wait()
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Header{}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := appendDurable(l, rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got, err := openRecovered(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	tail := got.entries
	if len(tail) != 5 {
		t.Fatalf("tail=%d records", len(tail))
	}
	for i, r := range tail {
		if r.Seq != i || r.Rule != "r" || r.Event.Fingerprint() != rec(i).Event.Fingerprint() {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if l2.TornBytes() != 0 {
		t.Fatalf("tornBytes=%d on a clean log", l2.TornBytes())
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Header{}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := appendDurable(l, rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Simulate a crash mid-append: half a record, no newline.
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"event":{"ru`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, got, err := openRecovered(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tail := got.entries; len(tail) != 3 {
		t.Fatalf("tail=%d records after torn write", len(tail))
	}
	if l2.TornBytes() == 0 {
		t.Fatal("torn bytes not reported")
	}
	// The torn bytes are gone from disk: appends land after record 2 and a
	// third open sees a clean 4-record log.
	if err := appendDurable(l2, rec(3)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, got, err := openRecovered(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if tail := got.entries; len(tail) != 4 || l3.TornBytes() != 0 {
		t.Fatalf("tail=%d torn=%d after repair", len(tail), l3.TornBytes())
	}
}

func TestCorruptInteriorLineCutsTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Header{}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendDurable(l, rec(0))
	l.Close()
	path := filepath.Join(dir, logName)
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString("not json at all\n")
	f.Close()
	// Everything from the corrupt line on is untrusted.
	l2, got, err := openRecovered(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if tail := got.entries; len(tail) != 1 || l2.TornBytes() == 0 {
		t.Fatalf("tail=%d torn=%d", len(tail), l2.TornBytes())
	}
}

func TestFailpointAppendRejectedCleanly(t *testing.T) {
	dir := t.TempDir()
	fp := NewFailpoints()
	l, err := Open(dir, Header{}, Options{Failpoints: fp}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendDurable(l, rec(0))
	boom := errors.New("disk on fire")
	fp.FailAppend(1, boom)
	if err := appendDurable(l, rec(1)); !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
	if err := l.Healthy(); err != nil {
		t.Fatalf("a clean rejection must not break the log: %v", err)
	}
	// The same record appends fine once the failpoint is spent.
	if err := appendDurable(l, rec(1)); err != nil {
		t.Fatal(err)
	}
}

func TestFailpointTornWriteRepairs(t *testing.T) {
	dir := t.TempDir()
	fp := NewFailpoints()
	l, err := Open(dir, Header{}, Options{Failpoints: fp}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendDurable(l, rec(0))
	fp.TornWrite(1, 7)
	if err := appendDurable(l, rec(1)); err == nil {
		t.Fatal("torn append must fail")
	} else if !strings.Contains(err.Error(), "partial write") {
		t.Fatalf("err=%v", err)
	}
	if err := l.Healthy(); err != nil {
		t.Fatalf("repair failed: %v", err)
	}
	// Disk holds exactly record 0: the torn bytes were truncated, so a
	// retry lands clean.
	if err := appendDurable(l, rec(1)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, got, err := openRecovered(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if tail := got.entries; len(tail) != 2 || l2.TornBytes() != 0 {
		t.Fatalf("tail=%d torn=%d", len(tail), l2.TornBytes())
	}
}

func TestFailpointSyncErrorRejects(t *testing.T) {
	dir := t.TempDir()
	fp := NewFailpoints()
	l, err := Open(dir, Header{}, Options{Sync: SyncAlways, Failpoints: fp}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	boom := errors.New("EIO")
	fp.FailNextSync(boom)
	if err := appendDurable(l, rec(0)); !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
	// The maybe-lost record was truncated away and the log stalled; once
	// the caller realigns to Accepted() and resumes, it is usable again.
	if got := l.Accepted(); got != 0 {
		t.Fatalf("Accepted() = %d after a failed first sync, want 0", got)
	}
	l.Resume()
	if err := appendDurable(l, rec(0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if len(mustTail(t, dir)) != 1 {
		t.Fatal("exactly one record must be on disk")
	}
}

func mustTail(t *testing.T, dir string) []Entry {
	t.Helper()
	l, got, err := openRecovered(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tail := got.entries
	return tail
}

func TestParsePolicy(t *testing.T) {
	for _, ok := range []string{"always", "never"} {
		if _, err := ParsePolicy(ok); err != nil {
			t.Fatalf("%s: %v", ok, err)
		}
	}
	for _, bad := range []string{"sometimes", "interval"} {
		if _, err := ParsePolicy(bad); err == nil || !strings.Contains(err.Error(), "always or never") {
			t.Fatalf("ParsePolicy(%q) = %v, want an error naming always or never", bad, err)
		}
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncNever} {
		dir := t.TempDir()
		l, err := Open(dir, Header{}, Options{Sync: p}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := appendDurable(l, rec(i)); err != nil {
				t.Fatalf("%s: %v", p, err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got := len(mustTail(t, dir)); got != 10 {
			t.Fatalf("%s: %d records", p, got)
		}
	}
}

// A log several scan chunks long is read through the one buffer: lines
// that straddle chunk edges, and a line longer than a chunk, replay intact
// and in order, and a torn or a corrupt record past the first chunk cuts
// the log exactly there.
func TestScanAcrossChunks(t *testing.T) {
	long := strings.Repeat("ν", scanChunk) // 2 bytes a rune: a line of two chunks
	build := func(t *testing.T) (dir string, want []Entry, sizes []int64) {
		dir = t.TempDir()
		l, err := Open(dir, Header{}, Options{Sync: SyncNever}, nil)
		if err != nil {
			t.Fatal(err)
		}
		size := int64(len(encodeHeader(Header{})))
		for i := 0; i < 3000; i++ {
			r := rec(i)
			if i == 1700 {
				r.Event = ev("two", "v1700", long)
			}
			if err := appendDurable(l, r); err != nil {
				t.Fatal(err)
			}
			size += int64(len(encodeRecord(r)))
			sizes = append(sizes, size)
			want = append(want, Entry{Seq: i, Rule: r.Event.Rule.Name, Event: r.Event})
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if size < 3*scanChunk {
			t.Fatalf("log of %d bytes spans fewer than 3 chunks", size)
		}
		return dir, want, sizes
	}
	check := func(t *testing.T, dir string, want []Entry, torn int64) {
		t.Helper()
		l, got, err := openRecovered(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if len(got.entries) != len(want) || l.TornBytes() != torn {
			t.Fatalf("replayed %d records, %d torn bytes; want %d, %d", len(got.entries), l.TornBytes(), len(want), torn)
		}
		for i, e := range got.entries {
			if e.Seq != want[i].Seq || e.Rule != want[i].Rule || e.Event.Fingerprint() != want[i].Event.Fingerprint() {
				t.Fatalf("record %d = %+v, want %+v", i, e, want[i])
			}
		}
	}
	t.Run("clean", func(t *testing.T) {
		dir, want, _ := build(t)
		check(t, dir, want, 0)
	})
	t.Run("torn", func(t *testing.T) {
		dir, want, _ := build(t)
		f, err := os.OpenFile(filepath.Join(dir, logName), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		tail := `{"seq":3000,"event":{"ru`
		f.WriteString(tail)
		f.Close()
		check(t, dir, want, int64(len(tail)))
	})
	t.Run("corrupt", func(t *testing.T) {
		dir, want, sizes := build(t)
		// Flip a byte of record 2500, well past the first chunk.
		path := filepath.Join(dir, logName)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[sizes[2499]+10] ^= 1
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, dir, want[:2500], int64(len(b))-sizes[2499])
	})
}

// TestTornHeaderRestamped: a log whose creation was cut before its
// header's newline holds no run yet: Open stamps it afresh with the
// caller's header, under either policy, and the log takes records.
func TestTornHeaderRestamped(t *testing.T) {
	hdr := encodeHeader(Header{Workflow: "w", Guards: map[string]int{"sue": 2}})
	for _, n := range []int{0, 3, len(headerOpen), len(hdr) - 1} {
		for _, strict := range []bool{false, true} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, logName), hdr[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			got := &recovered{}
			l, err := Open(dir, Header{Workflow: "w", Guards: map[string]int{"sue": 2}}, Options{Strict: strict}, got)
			if err != nil {
				t.Fatalf("%d torn header bytes (strict=%v): %v", n, strict, err)
			}
			if !l.Stamped() || l.TornBytes() != int64(n) || got.header.Guards["sue"] != 2 {
				t.Fatalf("%d torn header bytes: stamped %v, torn %d, header %+v", n, l.Stamped(), l.TornBytes(), got.header)
			}
			if err := appendDurable(l, rec(0)); err != nil {
				t.Fatal(err)
			}
			l.Close()
			if b, _ := os.ReadFile(filepath.Join(dir, logName)); !bytes.HasPrefix(b, hdr) || len(mustTail(t, dir)) != 1 {
				t.Fatalf("%d torn header bytes: log %q", n, b)
			}
		}
	}
}

// TestSnapshotFileRefused: a dir holding snapshot.json is legacy whatever
// its log holds, even none: Open refuses it before it creates the log.
func TestSnapshotFileRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte(`{"len":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Header{}, Options{}, nil); !errors.Is(err, ErrLegacy) {
		t.Fatalf("open = %v, want ErrLegacy", err)
	}
	if _, err := os.Stat(filepath.Join(dir, logName)); !os.IsNotExist(err) {
		t.Fatalf("the refused open created the log (stat: %v)", err)
	}
}
