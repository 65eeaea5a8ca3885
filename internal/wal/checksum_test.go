package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/obs"
	"collabwf/internal/program"
	"collabwf/internal/query"
	"collabwf/internal/rule"
	"collabwf/internal/trace"
)

// TestRecordChecksumRoundTrip: every appended record carries a CRC32C in
// the file and replays clean on reopen.
func TestRecordChecksumRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}, nil)
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

	l2, got, err := openRecovered(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if tail := got.entries; len(tail) != 4 {
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
		l, got, err := openRecovered(dir, Options{Strict: strict})
		if err != nil {
			t.Fatalf("strict=%v: %v", strict, err)
		}
		tail := got.entries
		if len(tail) != 1 || tail[0].Rule != "legacy" {
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
	l, err := Open(dir, Options{}, nil)
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
	l2, got, err := openRecovered(dir, Options{Metrics: reg})
	if err != nil {
		t.Fatalf("default policy must recover, got %v", err)
	}
	defer l2.Close()
	if tail := got.entries; len(tail) != 2 {
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
	l, err := Open(dir, Options{}, nil)
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

	_, err = Open(dir, Options{Strict: true}, nil)
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

// TestSnapshotChecksum: snapshot.json carries a whole-file checksum; a
// flipped byte is fatal under BOTH policies (there is no clean prefix to
// fall back to — a wrong guard file would silently drop a policy, a wrong
// legacy snapshot would rewrite history).
func TestSnapshotChecksum(t *testing.T) {
	dir := t.TempDir()
	if err := WriteGuards(dir, "w", map[string]int{"sue": 2}); err != nil {
		t.Fatal(err)
	}

	// Sanity: the clean guard file loads as a length-0 snapshot.
	l2, got, err := openRecovered(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if snap := got.snap; snap == nil || snap.CRC == 0 || snap.Len != 0 || snap.Guards["sue"] != 2 {
		t.Fatalf("guard file = %+v, want a checksummed length-0 snapshot guarding sue", snap)
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
		if _, err := Open(dir, Options{Strict: strict}, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("strict=%v: open of corrupt snapshot = %v, want ErrCorrupt", strict, err)
		}
	}
}

// recordChecksum is the record CRC as first defined: the CRC32C of the
// record re-encoded with CRC zeroed. The line checksum is held to it.
func recordChecksum(r Record) uint32 {
	r.CRC = 0
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	return crc32.Checksum(b, castagnoli)
}

// TestLineChecksumMatchesRecordChecksum: on every line of a log written by
// this package and of the legacy fixture, the CRC taken over the line's
// bytes equals the CRC of the re-encoded record, and encoding the parsed
// record reproduces the line.
func TestLineChecksumMatchesRecordChecksum(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		r := rec(i)
		if i%2 == 1 {
			r.Idem = fmt.Sprintf("key-%d", i)
		}
		r.Event.Valuation["note"] = `<&"ν` + " >"
		if err := appendDurable(l, r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	for _, path := range []string{
		filepath.Join(dir, logName),
		filepath.Join("..", "server", "testdata", "legacy-snapshot", logName),
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(raw, []byte("\n"))
		lines = lines[:len(lines)-1] // the empty remainder after the last newline
		if len(lines) == 0 {
			t.Fatalf("%s: no records", path)
		}
		for i, line := range lines {
			var r Record
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatalf("%s line %d: %v", path, i, err)
			}
			if r.CRC == 0 {
				t.Fatalf("%s line %d written without a checksum: %s", path, i, line)
			}
			sum, ok := lineChecksum(bytes.TrimSpace(line), r.CRC)
			if !ok || sum != r.CRC || recordChecksum(r) != r.CRC {
				t.Fatalf("%s line %d: line CRC %08x (found %v), record CRC %08x, stored %08x",
					path, i, sum, ok, recordChecksum(r), r.CRC)
			}
			if enc := encodeRecord(r); !bytes.Equal(enc, line) {
				t.Fatalf("%s line %d: re-encoded as %q, want %q", path, i, enc, line)
			}
		}
	}
}

// TestRecasedFieldIsCorrupt: a record whose "seq" was rewritten as "Seq"
// still parses to the same record (JSON field names match regardless of
// case), so re-encoding it would reproduce its checksum; the line checksum
// sees the changed byte. The default policy truncates there, strict mode
// refuses.
func TestRecasedFieldIsCorrupt(t *testing.T) {
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
	path := filepath.Join(dir, logName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := bytes.Replace(raw, []byte(`{"seq":1,`), []byte(`{"Seq":1,`), 1)
	if bytes.Equal(mut, raw) {
		t.Fatal("mutation did not apply")
	}
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Strict: true}, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict open = %v, want ErrCorrupt", err)
	}
	l2, got, err := openRecovered(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if tail := got.entries; len(tail) != 1 {
		t.Fatalf("replayed %d records, want the 1 before the recased one", len(tail))
	}
	if got := l2.CorruptRecords(); got != 1 {
		t.Fatalf("CorruptRecords() = %d, want 1", got)
	}
}

// marshalRecord is encodeRecord as it was written before it appended the
// record's fixed shape itself: encoding/json, with the CRC field spliced
// in. It is the oracle the encoder's bytes are held to.
func marshalRecord(rec Record) []byte {
	rec.CRC = 0
	b, err := json.Marshal(rec)
	if err != nil {
		panic(err)
	}
	crc := crc32.Checksum(b, castagnoli)
	if crc == 0 {
		return append(b, '\n')
	}
	b = append(b[:len(b)-1], crcField...)
	b = strconv.AppendUint(b, uint64(crc), 10)
	return append(b, '}', '\n')
}

// FuzzRecordLine: for any record — a valuation of up to three bindings, or
// none at all (nil) — the line encodeRecord writes equals marshalRecord's
// and the encoding of the record with CRC set to recordChecksum, it
// verifies, and its line CRC equals recordChecksum.
func FuzzRecordLine(f *testing.F) {
	f.Add(0, "clear", "x", "ν1", "", "", "", 1)
	f.Add(-7, `a<b>&"c"`, "\u2028", "line\nbreak", "key-1", "b\u2029", "\x00", 3)
	f.Add(1<<40, "", "", "", "\xff", "", "\xc3", 0)
	f.Add(5, "pay", "y", "ν2", "", "t", "w0", 2)
	f.Fuzz(func(t *testing.T, seq int, rule, k, v, idem, k2, v2 string, n int) {
		var val map[string]string
		if n%4 != 0 {
			val = map[string]string{k: v}
		}
		if n%4 >= 2 {
			val[k2] = v2
		}
		if n%4 == 3 {
			val[k+k2] = v + v2
		}
		r := Record{Seq: seq, Event: trace.EventRecord{Rule: rule, Valuation: val}, Idem: idem}
		line := encodeRecord(r)
		if old := marshalRecord(r); !bytes.Equal(line, old) {
			t.Fatalf("line %q, encoding/json wrote %q", line, old)
		}
		// The same valuation as an event of a rule over its names, written
		// from the slots.
		e := slotEvent(rule, val)
		fired := Record{Seq: seq, Fired: e, Idem: idem}
		mapped := Record{Seq: seq, Event: trace.EncodeEvent(e), Idem: idem}
		if got, old := encodeRecord(fired), marshalRecord(mapped); !bytes.Equal(got, old) {
			t.Fatalf("slot line %q, encoding/json wrote %q", got, old)
		}
		want := r
		want.CRC = recordChecksum(r)
		old, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, append(old, '\n')) {
			t.Fatalf("line %q, want %q", line, old)
		}
		got, err := verifyRecord(line)
		if err != nil {
			t.Fatalf("written line does not verify: %v", err)
		}
		if got.CRC != want.CRC {
			t.Fatalf("parsed CRC %08x, want %08x", got.CRC, want.CRC)
		}
		if want.CRC != 0 {
			if sum, ok := lineChecksum(bytes.TrimSpace(line), got.CRC); !ok || sum != want.CRC {
				t.Fatalf("line CRC %08x (found %v), want %08x", sum, ok, want.CRC)
			}
		}
	})
}

// slotEvent is the event binding val of a rule named name whose variables
// are val's names.
func slotEvent(name string, val map[string]string) *program.Event {
	var args []query.Term
	qv := make(query.Valuation, len(val))
	for k, v := range val {
		args = append(args, query.V(k))
		qv[k] = data.Value(v)
	}
	if len(args) == 0 {
		args = append(args, query.C("c"))
	}
	return program.MustEvent(&rule.Rule{Name: name, Head: []rule.Update{rule.Insert{Rel: "R", Args: args}}}, qv)
}

// TestEncodeRecordAllocs: encoding a record allocates its line and
// nothing else — no reflection, no sorted key copy — whether its
// valuation is a map or a fired event's slots.
func TestEncodeRecordAllocs(t *testing.T) {
	val := map[string]string{"t": "p.299", "c": "c0p.299", "x": "x0p.299"}
	for _, r := range []Record{
		{Seq: 2099, Event: trace.EventRecord{Rule: "submit0", Valuation: val}, Idem: "k-2099"},
		{Seq: 2099, Fired: slotEvent("submit0", val), Idem: "k-2099"},
	} {
		if allocs := testing.AllocsPerRun(100, func() { encodeRecord(r) }); allocs != 1 {
			t.Fatalf("encodeRecord made %.0f allocations, want 1", allocs)
		}
	}
}
