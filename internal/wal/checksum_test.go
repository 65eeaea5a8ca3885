package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"collabwf/internal/obs"
	"collabwf/internal/trace"
)

// TestRecordChecksumRoundTrip: every appended record carries a CRC32C in
// the file and replays clean on reopen.
func TestRecordChecksumRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := appendDurable(l, rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	raw, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		if !bytes.Contains(line, []byte(`"crc":`)) {
			t.Fatalf("record %d written without a checksum: %s", i, line)
		}
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, tail := l2.TakeRecovered(); len(tail) != 4 {
		t.Fatalf("replayed %d records, want 4", len(tail))
	}
	if got := l2.CorruptRecords(); got != 0 {
		t.Fatalf("CorruptRecords() = %d on a clean log", got)
	}
}

// TestUnchecksummedRecordStillReplays: records written before checksums
// existed (no crc field) replay without complaint — the upgrade is
// backward compatible with logs on disk.
func TestUnchecksummedRecordStillReplays(t *testing.T) {
	dir := t.TempDir()
	line := `{"seq":0,"event":{"rule":"legacy","valuation":{"x":"v0"}}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, logName), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, strict := range []bool{false, true} {
		l, err := Open(dir, Options{Strict: strict})
		if err != nil {
			t.Fatalf("strict=%v: %v", strict, err)
		}
		_, tail := l.TakeRecovered()
		if len(tail) != 1 || tail[0].Event.Rule != "legacy" {
			t.Fatalf("strict=%v: tail = %+v, want the legacy record", strict, tail)
		}
		if l.CorruptRecords() != 0 {
			t.Fatalf("strict=%v: legacy record counted as corrupt", strict)
		}
		l.Close()
	}
}

// corruptMiddleRecord flips payload bytes of record `seq` in dir's log —
// the line stays parseable JSON, so only the checksum can catch it.
func corruptMiddleRecord(t *testing.T, dir string, seq int) {
	t.Helper()
	path := filepath.Join(dir, logName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old, new := []byte(fmt.Sprintf(`"x":"v%d"`, seq)), []byte(`"x":"vX"`)
	if !bytes.Contains(raw, old) {
		t.Fatalf("record %d payload %s not found in log", seq, old)
	}
	if err := os.WriteFile(path, bytes.Replace(raw, old, new, 1), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptRecordTruncatesByDefault: a bit-flipped middle record is
// caught by its checksum; the default policy keeps the clean prefix, drops
// the record and everything after it, counts it, and keeps serving.
func TestCorruptRecordTruncatesByDefault(t *testing.T) {
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
	l.Close()
	corruptMiddleRecord(t, dir, 2)

	reg := obs.NewRegistry()
	l2, err := Open(dir, Options{Metrics: reg})
	if err != nil {
		t.Fatalf("default policy must recover, got %v", err)
	}
	defer l2.Close()
	if _, tail := l2.TakeRecovered(); len(tail) != 2 {
		t.Fatalf("replayed %d records, want the 2 before the corruption", len(tail))
	}
	if got := l2.CorruptRecords(); got != 1 {
		t.Fatalf("CorruptRecords() = %d, want 1", got)
	}
	if l2.TornBytes() == 0 {
		t.Fatal("dropped bytes not accounted as torn")
	}
	if got, ok := counterValue(reg, "wf_wal_corrupt_records_total"); !ok || got != 1 {
		t.Fatalf("wf_wal_corrupt_records_total = %v (ok=%v), want 1", got, ok)
	}
	// The log accepts appends again from the surviving prefix.
	if err := appendDurable(l2, rec(2)); err != nil {
		t.Fatalf("append after corruption recovery: %v", err)
	}
}

// TestCorruptRecordStrictRefuses: -wal-strict refuses to start on the same
// corruption, names the offset, and leaves the file byte-for-byte intact
// for inspection.
func TestCorruptRecordStrictRefuses(t *testing.T) {
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
	l.Close()
	corruptMiddleRecord(t, dir, 2)
	before, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Options{Strict: true})
	if err == nil {
		t.Fatal("strict open must refuse a corrupt record")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "strict mode") {
		t.Fatalf("error does not explain the refusal: %v", err)
	}
	after, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("strict mode modified the log file it refused")
	}
}

// TestSnapshotChecksum: the snapshot carries a whole-file checksum; a
// flipped byte is fatal under BOTH policies (there is no clean prefix to
// fall back to — a wrong snapshot would silently rewrite history).
func TestSnapshotChecksum(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Workflow: "w", Len: 1, Guards: map[string]int{"sue": 2},
		Trace: &trace.Trace{Workflow: "w"}}
	if err := l.WriteSnapshotCtx(t.Context(), snap); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Sanity: the clean snapshot loads.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if snap, _ := l2.TakeRecovered(); snap == nil || snap.CRC == 0 {
		t.Fatal("snapshot written without a checksum")
	}
	l2.Close()

	path := filepath.Join(dir, snapshotName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := bytes.Replace(raw, []byte(`"sue"`), []byte(`"bob"`), 1)
	if bytes.Equal(mut, raw) {
		t.Fatal("mutation did not apply")
	}
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, strict := range []bool{false, true} {
		if _, err := Open(dir, Options{Strict: strict}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("strict=%v: open of corrupt snapshot = %v, want ErrCorrupt", strict, err)
		}
	}
}
