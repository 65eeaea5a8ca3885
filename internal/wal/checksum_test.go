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
	"unicode/utf8"

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
	l, err := Open(dir, Header{}, Options{}, nil)
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
// existed (no crc field) are refused by Open, which leaves the file as it
// was, and still read by ReadLegacy, from which the upgrade replays them.
func TestUnchecksummedRecordStillReplays(t *testing.T) {
	dir := t.TempDir()
	line := `{"seq":0,"event":{"rule":"legacy","valuation":{"x":"v0"}}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, logName), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, strict := range []bool{false, true} {
		var rp callCounter
		if _, err := Open(dir, Header{}, Options{Strict: strict}, &rp); !errors.Is(err, ErrLegacy) || !strings.Contains(err.Error(), "wfrun -spec SPEC -upgrade "+dir) {
			t.Fatalf("strict=%v: open of a legacy log = %v, want ErrLegacy naming the upgrade", strict, err)
		}
		if rp.starts != 0 {
			t.Fatalf("strict=%v: the replayer was started", strict)
		}
	}
	if b, err := os.ReadFile(filepath.Join(dir, logName)); err != nil || string(b) != line {
		t.Fatalf("refused open changed the log: %q, %v", b, err)
	}
	old, err := ReadLegacy(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(old.Records) != 1 || old.Records[0].Event.Rule != "legacy" || old.Records[0].Event.Valuation["x"] != "v0" {
		t.Fatalf("legacy records %+v, want the unchecksummed one", old.Records)
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
	l, err := Open(dir, Header{}, Options{}, nil)
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
	l, err := Open(dir, Header{}, Options{}, nil)
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

	_, err = Open(dir, Header{}, Options{Strict: true}, nil)
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

// TestSnapshotChecksum: the header, which holds the guards a legacy dir
// kept in snapshot.json, is checksummed like that file was: a flipped
// guard is fatal under BOTH policies (there is no clean prefix to fall back
// to — a wrong guard would silently drop a policy). ReadLegacy verifies a
// legacy snapshot.json's whole-file checksum the same way.
func TestSnapshotChecksum(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Header{Workflow: "w", Guards: map[string]int{"sue": 2}}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	// A header's guards are kept, not overwritten by the caller's.
	l2, got, err := openRecovered(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h := got.header; h.Workflow != "w" || len(h.Guards) != 1 || h.Guards["sue"] != 2 || l2.Stamped() {
		t.Fatalf("header = %+v (stamped %v), want workflow w guarding sue=2", h, l2.Stamped())
	}
	l2.Close()
	path := filepath.Join(dir, logName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, mut := range [][]byte{
		bytes.Replace(raw, []byte(`"sue"`), []byte(`"bob"`), 1),
		bytes.Replace(raw, []byte(`{"wal":1`), []byte(`{"wal":2`), 1),
	} {
		if bytes.Equal(mut, raw) {
			t.Fatal("mutation did not apply")
		}
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, strict := range []bool{false, true} {
			if _, err := Open(dir, Header{}, Options{Strict: strict}, nil); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("strict=%v: open of a corrupt header = %v, want ErrCorrupt", strict, err)
			}
		}
	}

	legacy := t.TempDir()
	snap := filepath.Join("..", "server", "testdata", "legacy-snapshot", snapshotName)
	raw, err = os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range [][]byte{raw, bytes.Replace(raw, []byte(`"sue"`), []byte(`"bob"`), 1)} {
		if err := os.WriteFile(filepath.Join(legacy, snapshotName), b, 0o644); err != nil {
			t.Fatal(err)
		}
		old, err := ReadLegacy(legacy)
		if i == 0 && (err != nil || old.Snapshot.Guards["sue"] != 3 || old.Snapshot.Len != 2) {
			t.Fatalf("legacy snapshot = %+v, %v", old, err)
		}
		if i == 1 && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadLegacy of a corrupt snapshot = %v, want ErrCorrupt", err)
		}
	}
}

// lineChecksum recomputes the CRC of a line (surrounding space trimmed)
// whose parsed CRC is crc, as encoding/json parses it: the CRC32C of the
// line with its trailing CRC field cut. ok is false when the line does not
// end in that field. It is the reference checkCRC is held to.
func lineChecksum(line []byte, crc uint32) (sum uint32, ok bool) {
	var buf [len(crcField) + 11]byte
	tail := strconv.AppendUint(append(buf[:0], crcField...), uint64(crc), 10)
	body, ok := bytes.CutSuffix(line, append(tail, '}'))
	if !ok {
		return 0, false
	}
	return crc32.Update(crc32.Checksum(body, castagnoli()), castagnoli(), closeBrace), true
}

// recordChecksum is the record CRC as first defined: the CRC32C of the
// record re-encoded with CRC zeroed. The line checksum is held to it.
func recordChecksum(r LegacyRecord) uint32 {
	r.CRC = 0
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	return crc32.Checksum(b, castagnoli())
}

// TestLineChecksumMatchesRecordChecksum: on every record line of a log
// written by this package and of the legacy fixture, the CRC taken over
// the line's bytes equals the CRC of the re-encoded record, and encoding
// the parsed record's event reproduces the line.
func TestLineChecksumMatchesRecordChecksum(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Header{}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		r := Record{Seq: i, Event: ev("two", fmt.Sprintf("v%d", i), `<&"ν`+" >")}
		if i%2 == 1 {
			r.Idem = fmt.Sprintf("key-%d", i)
		}
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
		if bytes.HasPrefix(lines[0], []byte(headerOpen)) {
			lines = lines[1:]
		}
		if len(lines) == 0 {
			t.Fatalf("%s: no records", path)
		}
		for i, line := range lines {
			var r LegacyRecord
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
			enc := encodeRecord(Record{Seq: r.Seq, Event: slotEvent(r.Event.Rule, r.Event.Valuation), Idem: r.Idem})
			if !bytes.Equal(enc, line) {
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
	if _, err := Open(dir, Header{}, Options{Strict: true}, nil); !errors.Is(err, ErrCorrupt) {
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
func marshalRecord(rec LegacyRecord) []byte {
	rec.CRC = 0
	b, err := json.Marshal(rec)
	if err != nil {
		panic(err)
	}
	crc := crc32.Checksum(b, castagnoli())
	b = append(b[:len(b)-1], crcField...)
	b = strconv.AppendUint(b, uint64(crc), 10)
	return append(b, '}', '\n')
}

// FuzzRecordLine: for any record — an event binding up to three
// variables, or none — the line encodeRecord writes equals
// marshalRecord's, whose CRC is recordChecksum, and the line decodes back
// to the record: to its event when its strings are valid UTF-8, which
// jsonw writes unchanged or as escapes the decoder resolves.
func FuzzRecordLine(f *testing.F) {
	f.Add(0, "clear", "x", "ν1", "", "", "", 1)
	f.Add(-7, `a<b>&"c"`, "\u2028", "line\nbreak", "key-1", "b\u2029", "\x00", 3)
	f.Add(1<<40, "", "", "", "\xff", "", "\xc3", 0)
	f.Add(5, "pay", "y", "ν2", "", "t", "w0", 2)
	f.Fuzz(func(t *testing.T, seq int, name, k, v, idem, k2, v2 string, n int) {
		val := map[string]string{}
		if n%4 != 0 {
			val[k] = v
		}
		if n%4 >= 2 {
			val[k2] = v2
		}
		if n%4 == 3 {
			val[k+k2] = v + v2
		}
		e := slotEvent(name, val)
		r := Record{Seq: seq, Event: e, Idem: idem}
		line := encodeRecord(r)
		old := LegacyRecord{Seq: seq, Event: trace.EncodeEvent(e), Idem: idem}
		if want := marshalRecord(old); !bytes.Equal(line, want) {
			t.Fatalf("line %q, encoding/json wrote %q", line, want)
		}
		var got LegacyRecord
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if got.CRC != recordChecksum(old) {
			t.Fatalf("parsed CRC %08x, want %08x", got.CRC, recordChecksum(old))
		}
		if sum, ok := lineChecksum(bytes.TrimSpace(line), got.CRC); !ok || sum != got.CRC {
			t.Fatalf("line CRC %08x (found %v), want %08x", sum, ok, got.CRC)
		}
		if seq < 0 || seq >= 1e18 {
			return
		}
		dec, err := newDecoder([]*rule.Rule{e.Rule}, 1).decode(line)
		if err != nil {
			t.Fatalf("written line %q does not decode: %v", line, err)
		}
		valid := true
		for _, s := range []string{name, idem, k, v, k2, v2} {
			valid = valid && utf8.ValidString(s)
		}
		if valid && (dec.Seq != seq || dec.Idem != idem || dec.Event == nil || dec.Event.Fingerprint() != e.Fingerprint()) {
			t.Fatalf("line %q decoded to %+v", line, dec)
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
// nothing else — no reflection, no sorted key copy.
func TestEncodeRecordAllocs(t *testing.T) {
	r := Record{Seq: 2099, Event: slotEvent("submit0", map[string]string{"t": "p.299", "c": "c0p.299", "x": "x0p.299"}), Idem: "k-2099"}
	if allocs := testing.AllocsPerRun(100, func() { encodeRecord(r) }); allocs != 1 {
		t.Fatalf("encodeRecord made %.0f allocations, want 1", allocs)
	}
}

// TestHeaderLine: the header line is what encoding/json writes for the
// header beside its format stamp, with the CRC field spliced in, and
// parses back to the header.
func TestHeaderLine(t *testing.T) {
	for _, h := range []Header{{}, {Workflow: "Hiring"}, {Workflow: `<"w">` + " ", Guards: map[string]int{"sue": 3, "hr": 12, "a&b": 1}}} {
		b, err := json.Marshal(struct {
			Format int `json:"wal"`
			Header
		}{1, h})
		if err != nil {
			t.Fatal(err)
		}
		line := encodeHeader(h)
		if want := appendCRC(b); !bytes.Equal(line, want) {
			t.Fatalf("header line %q, encoding/json wrote %q", line, want)
		}
		got, err := parseHeader(line[:len(line)-1])
		if err != nil || got.Workflow != h.Workflow || len(got.Guards) != len(h.Guards) {
			t.Fatalf("%q parsed to %+v, %v", line, got, err)
		}
		for p, n := range h.Guards {
			if got.Guards[p] != n {
				t.Fatalf("%q parsed to %+v", line, got)
			}
		}
	}
}
