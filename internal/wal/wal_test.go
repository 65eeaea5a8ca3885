package wal

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/program"
	"collabwf/internal/query"
	"collabwf/internal/trace"
)

func rec(seq int) Record {
	return Record{Seq: seq, Event: trace.EventRecord{
		Rule:      fmt.Sprintf("rule%d", seq),
		Valuation: map[string]string{"x": fmt.Sprintf("v%d", seq)},
	}}
}

// recovered collects what Open replays.
type recovered struct {
	snap    *Snapshot
	entries []Entry
}

func (r *recovered) Program() *program.Program { return nil }

func (r *recovered) Start(snap *Snapshot, _ int) error {
	r.snap = snap
	return nil
}

func (r *recovered) Record(e Entry) error {
	r.entries = append(r.entries, e)
	return nil
}

// openRecovered opens the log in dir, collecting what it replays.
func openRecovered(dir string, opts Options) (*Log, *recovered, error) {
	got := &recovered{}
	l, err := Open(dir, opts, got)
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
	l, err := Open(dir, Options{}, nil)
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
		if r.Seq != i || r.Rule != fmt.Sprintf("rule%d", i) || r.Val["x"] != data.Value(fmt.Sprintf("v%d", i)) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if l2.TornBytes() != 0 {
		t.Fatalf("tornBytes=%d on a clean log", l2.TornBytes())
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}, nil)
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
	l, err := Open(dir, Options{}, nil)
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
	l, err := Open(dir, Options{Failpoints: fp}, nil)
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
	l, err := Open(dir, Options{Failpoints: fp}, nil)
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
	l, err := Open(dir, Options{Sync: SyncAlways, Failpoints: fp}, nil)
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
	for _, ok := range []string{"always", "interval", "never"} {
		if _, err := ParsePolicy(ok); err != nil {
			t.Fatalf("%s: %v", ok, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		dir := t.TempDir()
		l, err := Open(dir, Options{Sync: p}, nil)
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
		l, err := Open(dir, Options{Sync: SyncNever}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var size int64
		for i := 0; i < 3000; i++ {
			r := rec(i)
			if i == 1700 {
				r.Event.Valuation["long"] = long
			}
			if err := appendDurable(l, r); err != nil {
				t.Fatal(err)
			}
			size += int64(len(encodeRecord(r)))
			sizes = append(sizes, size)
			val := query.Valuation{}
			for k, v := range r.Event.Valuation {
				val[k] = data.Value(v)
			}
			want = append(want, Entry{Seq: i, Rule: r.Event.Rule, Val: val})
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
			if e.Seq != want[i].Seq || e.Rule != want[i].Rule || !maps.Equal(e.Val, want[i].Val) {
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
