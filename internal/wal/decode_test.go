package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"testing"
	"unsafe"

	"collabwf/internal/query"
	"collabwf/internal/rule"
	"collabwf/internal/trace"
)

// referenceRecord is how a record line was verified before the fixed-shape
// decoder existed — encoding/json, then the checksum over the line's own
// bytes — kept here so the decoder is held to it on any input.
func referenceRecord(line []byte) (Record, error) {
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

// withCRC closes body (a record line up to its CRC field) with the field
// holding body's checksum, and the newline.
func withCRC(body string) []byte {
	crc := crc32.Update(crc32.Checksum([]byte(body), castagnoli), castagnoli, closeBrace)
	return []byte(body + crcField + strconv.FormatUint(uint64(crc), 10) + "}\n")
}

// encoded is encodeRecord for a test record.
func encoded(t testing.TB, r Record) []byte {
	t.Helper()
	return encodeRecord(r)
}

// decodeSeeds are lines on each side of the fixed shape's edges.
func decodeSeeds(t testing.TB) [][]byte {
	plain := encoded(t, rec(1))
	keyed := rec(2)
	keyed.Idem = "key-2"
	escaped := rec(3)
	escaped.Event.Valuation["note"] = `<a "b">`
	seeds := [][]byte{
		plain,
		encoded(t, keyed),
		bytes.Replace(plain, []byte(`{"seq":1,`), []byte(`{"Seq":1,`), 1),
		encoded(t, escaped),
		withCRC(`{"seq":4,"event":{"rule":"r","valuation":{"x":"<raw>&"}}`),
		[]byte(`{"seq":0,"event":{"rule":"legacy","valuation":{"x":"v0"}}}` + "\n"),
		encoded(t, Record{Seq: -7, Event: rec(0).Event}),
		encoded(t, Record{Seq: 1 << 40, Event: rec(0).Event}),
		withCRC(`{"seq":5,"event":{"rule":"r","valuation":{"x":"a","x":"b"}}`),
		withCRC(`{"seq":6,"event":{"rule":"r","valuation":{"x":"` + "\xff" + `"}}`),
		withCRC(`{"seq":7,"event":{"rule":"r","valuation":{"x":"ν1"}},"idem":""`),
		withCRC(`{"seq":8,"event":{"rule":"r","valuation":{}}`),
		withCRC(`{"seq":8,"event":{"rule":"two","valuation":{"x":"a"}}`),
		withCRC(`{"seq":8,"event":{"rule":"two","valuation":{"z":"b","x":"a","q":"c"}}`),
		[]byte(`{"seq":8,"event":{"rule":"pay","valuation":{"y":"1","t":"2","w":"3","ν":"4"}}}` + "\n"),
		append(bytes.TrimSuffix(plain, []byte("\n")), "  \r\n"...),
		[]byte(`{"seq":9,"event":{"rule":"r","valuation":{"x":"v"}},"crc":0}` + "\n"),
		[]byte(`{"seq":9,"event":{"rule":"r","valuation":{"x":"v"}},"crc":00}` + "\n"),
		[]byte(`{"seq":9,"event":{"rule":"r","valuation":{"x":"v"}},"crc":4294967296}` + "\n"),
		bytes.Replace(plain, []byte(`"v1"`), []byte(`"vX"`), 1),
		[]byte("\n"),
		[]byte("{}\n"),
	}
	return seeds
}

// testRules are the rules the slot decoder of the decode tests knows: "r"
// and "rule1" over x, "pay" over t, w and y, "two" over x and z, and
// "noop", which has no variable.
func testRules() []*rule.Rule {
	ins := func(name string, args ...query.Term) *rule.Rule {
		return &rule.Rule{Name: name, Head: []rule.Update{rule.Insert{Rel: "R", Args: args}}}
	}
	return []*rule.Rule{
		ins("r", query.V("x")),
		ins("rule1", query.V("x")),
		ins("pay", query.V("y"), query.V("t"), query.V("w")),
		ins("two", query.V("x"), query.V("z")),
		ins("noop", query.C("c")),
	}
}

// checkDecodeAgrees requires the decoder and referenceRecord to agree on
// line: both accept or both reject, with the same ErrCorrupt class, and an
// accepted line decodes to the same record. A decoder without rules keeps
// every valuation a map; one with testRules decodes a line of the fixed
// shape whose rule is known and binds each of its variables into the
// rule's slots, dropping any other name, and keeps the map otherwise.
func checkDecodeAgrees(t *testing.T, line []byte) {
	t.Helper()
	want, werr := referenceRecord(line)
	_, fixed := newDecoder(nil, 1).decodeFixed(line)
	for _, d := range []*decoder{newDecoder(nil, 1), newDecoder(testRules(), 1)} {
		got, err := d.decode(line)
		if (err == nil) != (werr == nil) || errors.Is(err, ErrCorrupt) != errors.Is(werr, ErrCorrupt) {
			t.Fatalf("%q: decoder error %v, reference error %v", line, err, werr)
		}
		if err != nil {
			return
		}
		val := want.Event.Valuation
		same := got.Seq == want.Seq && got.Rule == want.Event.Rule && got.Idem == want.Idem
		if rl := d.rules[want.Event.Rule]; rl != nil && fixed && bindsAll(rl, val) {
			same = same && got.Val == nil && got.Event != nil && got.Event.Rule == rl
			for _, v := range rl.Layout().Vars {
				gv, _ := got.Event.Value(v)
				same = same && string(gv) == val[v]
			}
		} else {
			same = same && got.Event == nil && len(got.Val) == len(val)
			for k, v := range val {
				gv, ok := got.Val[k]
				same = same && ok && string(gv) == v
			}
		}
		if !same {
			t.Fatalf("%q: decoded %+v, reference %+v", line, got, want)
		}
	}
}

// bindsAll reports whether val binds every variable of rl.
func bindsAll(rl *rule.Rule, val map[string]string) bool {
	for _, v := range rl.Layout().Vars {
		if _, ok := val[v]; !ok {
			return false
		}
	}
	return true
}

// FuzzDecodeRecordLine: on arbitrary bytes, not only encoder output, the
// decoder accepts and rejects exactly the lines encoding/json with the line
// checksum does, and decodes the same record; and a line that is encoder
// output with no escape and a seq in the shape's range takes the
// fixed-shape path. The input's first line (its newline added when
// missing) is the line decoded, as scan would cut it, and so is that line
// with a matching CRC field.
func FuzzDecodeRecordLine(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if i := bytes.IndexByte(b, '\n'); i >= 0 {
			b = b[:i+1]
		} else {
			b = append(b, '\n')
		}
		checkDecodeAgrees(t, b)
		// The same line with its CRC field replaced by a matching one, so
		// the shape parser behind the CRC check sees arbitrary bodies too.
		if body, ok := bytes.CutSuffix(b, []byte("}\n")); ok {
			if i := bytes.LastIndex(body, []byte(crcField)); i >= 0 {
				body = body[:i]
			}
			checkDecodeAgrees(t, withCRC(string(body)))
		}
		want, err := referenceRecord(b)
		if err != nil || want.CRC == 0 || want.Seq < 0 || want.Seq >= 1e18 || bytes.IndexByte(b, '\\') >= 0 {
			return
		}
		if bytes.Equal(encodeRecord(want), b) {
			if _, ok := newDecoder(nil, 1).decodeFixed(b); !ok {
				t.Fatalf("encoder line %q fell back to encoding/json", b)
			}
		}
	})
}

// TestDecodeFixedTakesEncoderLines: every line encodeRecord writes for a
// record with a non-negative seq and strings it writes verbatim is decoded
// by the fixed-shape path, not by the encoding/json fallback, and the
// seeds outside the shape fall back and still agree.
func TestDecodeFixedTakesEncoderLines(t *testing.T) {
	d := newDecoder(testRules(), 1)
	for i, r := range []Record{
		rec(0), rec(123456),
		{Seq: 9, Event: trace.EventRecord{Rule: "pay", Valuation: map[string]string{"t": "p.1", "w": "w0", "y": "yp.1", "ν": "ν12 ✓"}}, Idem: "k-9"},
		{Seq: 10, Event: trace.EventRecord{Rule: "noop", Valuation: map[string]string{}}},
		{Seq: 11, Event: trace.EventRecord{Rule: "two", Valuation: map[string]string{"x": "a"}}},
	} {
		line := encoded(t, r)
		if _, ok := d.decodeFixed(line); !ok {
			t.Fatalf("record %d: encoder line %q fell back to encoding/json", i, line)
		}
		checkDecodeAgrees(t, line)
	}
	for _, s := range decodeSeeds(t) {
		checkDecodeAgrees(t, s)
	}
}

// TestDecodeIntoSlots: a record of a known rule is decoded into the
// decoder's arenas: its values share one string, which is the line's one
// allocation, and a name that is no variable of the rule (a record written
// before /submit rejected such a binding) is dropped.
func TestDecodeIntoSlots(t *testing.T) {
	line := encoded(t, Record{Seq: 3, Event: trace.EventRecord{Rule: "pay",
		Valuation: map[string]string{"t": "p.1", "w": "w0", "y": "yp.1", "bogus": "b"}}})
	d := newDecoder(testRules(), 200)
	e, ok := d.decodeFixed(line)
	if !ok || e.Event == nil || e.Val != nil {
		t.Fatalf("decoded %+v (fixed shape %v), want a slot event", e, ok)
	}
	if got := e.Event.Fingerprint(); got != "pay{t↦p.1, w↦w0, y↦yp.1}" {
		t.Fatalf("event %s", got)
	}
	vals := e.Event.Vals()
	if unsafe.Add(unsafe.Pointer(unsafe.StringData(string(vals[0]))), 5) != unsafe.Pointer(unsafe.StringData(string(vals[2]))) {
		t.Fatal("the line's values are not one string")
	}
	if allocs := testing.AllocsPerRun(100, func() { d.decodeFixed(line) }); allocs != 1 {
		t.Fatalf("decoding a line into slots made %.0f allocations, want 1", allocs)
	}
}
