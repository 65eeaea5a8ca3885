//go:build linux || darwin || dragonfly || freebsd || netbsd || openbsd

package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"collabwf/internal/program"
)

// callCounter counts a replayer's calls.
type callCounter struct{ starts, records int }

func (c *callCounter) Program() *program.Program  { return nil }
func (c *callCounter) Start(*Snapshot, int) error { c.starts++; return nil }
func (c *callCounter) Record(Entry) error         { c.records++; return nil }

// TestOpenRefusesLiveDir: while one log holds a dir, a second Open fails
// with ErrInUse naming the dir, before it reads anything: the replayer is
// never started, and a partial last line — which may be the holder's
// in-flight append — stays on disk. Close and Crash both release the dir.
func TestOpenRefusesLiveDir(t *testing.T) {
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
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"event":{"ru`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var rp callCounter
	if l2, err := Open(dir, Options{}, &rp); !errors.Is(err, ErrInUse) {
		if l2 != nil {
			l2.Close()
		}
		t.Fatalf("second Open of a live dir: err = %v, want ErrInUse", err)
	} else if !strings.Contains(err.Error(), dir) {
		t.Fatalf("error %q does not name the dir", err)
	}
	if rp.starts != 0 || rp.records != 0 {
		t.Fatalf("refused Open replayed: %d starts, %d records", rp.starts, rp.records)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("refused Open changed wal.log: %d bytes → %d", len(before), len(after))
	}

	// Crash releases the dir: the next Open recovers and repairs the tail.
	if _, _, err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	l2, got, err := openRecovered(dir, Options{})
	if err != nil {
		t.Fatalf("Open after Crash: %v", err)
	}
	if len(got.entries) != 3 || l2.TornBytes() == 0 {
		t.Fatalf("after Crash: %d records, %d torn bytes", len(got.entries), l2.TornBytes())
	}
	// Close releases it too.
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	l3.Close()
}
