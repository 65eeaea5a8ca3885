package wal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"collabwf/internal/trace"
)

func rec(seq int) Record {
	return Record{Seq: seq, Event: trace.EventRecord{
		Rule:      fmt.Sprintf("rule%d", seq),
		Valuation: map[string]string{"x": fmt.Sprintf("v%d", seq)},
	}}
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
	l, err := Open(dir, Options{})
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
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	_, tail := l2.TakeRecovered()
	if len(tail) != 5 {
		t.Fatalf("tail=%d records", len(tail))
	}
	for i, r := range tail {
		if r.Seq != i || r.Event.Rule != fmt.Sprintf("rule%d", i) || r.Event.Valuation["x"] != fmt.Sprintf("v%d", i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if l2.TornBytes() != 0 {
		t.Fatalf("tornBytes=%d on a clean log", l2.TornBytes())
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
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

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, tail := l2.TakeRecovered(); len(tail) != 3 {
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
	l3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if _, tail := l3.TakeRecovered(); len(tail) != 4 || l3.TornBytes() != 0 {
		t.Fatalf("tail=%d torn=%d after repair", len(tail), l3.TornBytes())
	}
}

func TestCorruptInteriorLineCutsTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
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
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, tail := l2.TakeRecovered(); len(tail) != 1 || l2.TornBytes() == 0 {
		t.Fatalf("tail=%d torn=%d", len(tail), l2.TornBytes())
	}
}

func TestSnapshotResetsLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		appendDurable(l, rec(i))
	}
	snap := &Snapshot{Workflow: "w", Len: 4, Guards: map[string]int{"sue": 2},
		Trace: &trace.Trace{Workflow: "w"}}
	if err := l.WriteSnapshotCtx(t.Context(), snap); err != nil {
		t.Fatal(err)
	}
	if err := appendDurable(l, rec(4)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got, tail := l2.TakeRecovered()
	if got == nil || got.Len != 4 || got.Guards["sue"] != 2 {
		t.Fatalf("snapshot=%+v", got)
	}
	if len(tail) != 1 || tail[0].Seq != 4 {
		t.Fatalf("tail=%+v", tail)
	}
}

func TestFailpointAppendRejectedCleanly(t *testing.T) {
	dir := t.TempDir()
	fp := NewFailpoints()
	l, err := Open(dir, Options{Failpoints: fp})
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
	l, err := Open(dir, Options{Failpoints: fp})
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
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, tail := l2.TakeRecovered(); len(tail) != 2 || l2.TornBytes() != 0 {
		t.Fatalf("tail=%d torn=%d", len(tail), l2.TornBytes())
	}
}

func TestFailpointSyncErrorRejects(t *testing.T) {
	dir := t.TempDir()
	fp := NewFailpoints()
	l, err := Open(dir, Options{Sync: SyncAlways, Failpoints: fp})
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
	if len(mustTail(t, dir)) != 1 {
		t.Fatal("exactly one record must be on disk")
	}
}

func mustTail(t *testing.T, dir string) []Record {
	t.Helper()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	_, tail := l.TakeRecovered()
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
		l, err := Open(dir, Options{Sync: p})
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
