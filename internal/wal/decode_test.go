package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"unsafe"

	"collabwf/internal/query"
	"collabwf/internal/rule"
)

// referenceRecord is encoding/json's reading of a record line, the
// oracle the decoder is held to: ok when the line parses and names the
// checksum of its own bytes.
func referenceRecord(line []byte) (rec LegacyRecord, ok bool) {
	line = bytes.TrimSpace(line)
	if json.Unmarshal(line, &rec) != nil {
		return rec, false
	}
	sum, ok := lineChecksum(line, rec.CRC)
	return rec, ok && sum == rec.CRC
}

// withCRC closes body (a record line up to its CRC field) with the field
// holding body's checksum, and the newline.
func withCRC(body string) []byte {
	return appendCRC([]byte(body + "}"))
}

// decodeSeeds are lines on each side of the shape's edges, and one line
// per JSON escape: each one jsonw writes, and some it never writes.
func decodeSeeds(t testing.TB) [][]byte {
	plain := encodeRecord(rec(1))
	keyed := rec(2)
	keyed.Idem = "key-2"
	seeds := [][]byte{
		plain,
		encodeRecord(keyed),
		bytes.Replace(plain, []byte(`{"seq":1,`), []byte(`{"Seq":1,`), 1),
		withCRC(`{"seq":4,"event":{"rule":"r","valuation":{"x":"<raw>&"}}`),
		[]byte(`{"seq":0,"event":{"rule":"legacy","valuation":{"x":"v0"}}}` + "\n"),
		encodeRecord(Record{Seq: -7, Event: rec(0).Event}),
		encodeRecord(Record{Seq: 1 << 40, Event: rec(0).Event}),
		withCRC(`{"seq":5,"event":{"rule":"r","valuation":{"x":"a","x":"b"}}`),
		withCRC(`{"seq":6,"event":{"rule":"r","valuation":{"x":"` + "\xff" + `"}}`),
		withCRC(`{"seq":7,"event":{"rule":"r","valuation":{"x":"ν1"}},"idem":""`),
		withCRC(`{"seq":8,"event":{"rule":"r","valuation":{}}`),
		withCRC(`{"seq":8,"event":{"rule":"two","valuation":{"x":"a"}}`),
		withCRC(`{"seq":8,"event":{"rule":"two","valuation":{"z":"b","x":"a"}}`),
		withCRC(`{"seq":8,"event":{"rule":"two","valuation":{"z":"b","x":"a","q":"c"}}`),
		[]byte(`{"seq":8,"event":{"rule":"pay","valuation":{"y":"1","t":"2","w":"3","ν":"4"}}}` + "\n"),
		append(bytes.TrimSuffix(plain, []byte("\n")), "  \r\n"...),
		withCRC(`{"seq":9,"event":{"rule":"r","valuation":{"x":"v"}},"crc":0`),
		[]byte(`{"seq":9,"event":{"rule":"r","valuation":{"x":"v"}},"crc":00}` + "\n"),
		[]byte(`{"seq":9,"event":{"rule":"r","valuation":{"x":"v"}},"crc":4294967296}` + "\n"),
		bytes.Replace(plain, []byte(`"v1"`), []byte(`"vX"`), 1),
		[]byte("\n"),
		[]byte("{}\n"),
	}
	for _, esc := range []string{`\"`, `\\`, `\b\f\n\r\t`, `\u0000\u001f`, `\u003c\u003e\u0026`,
		`\u2028\u2029`, `\ufffd`, `\/`, `\u00e9\u00E9`, `\ud800`, `\udc00`, `\x41`, `\u12`, `\`} {
		seeds = append(seeds, withCRC(`{"seq":9,"event":{"rule":"r","valuation":{"x":"a`+esc+`b"}},"idem":"`+esc+`"`))
	}
	return seeds
}

// testRules are the rules the slot decoder of the decode tests knows: "r"
// and "rule1" over x, "pay" over t, w and y, "two" over x and z, and
// "noop", which has no variable.
func testRules() []*rule.Rule { return rules }

var rules = func() []*rule.Rule {
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
}()

// checkDecodeAgrees requires the decoder to accept line only when
// referenceRecord does, with the same record: a decoder without rules
// decodes no event; an event one with testRules decodes binds exactly the
// variables of its rule, to the reference's values. A line the decoder
// refuses is ErrCorrupt.
func checkDecodeAgrees(t *testing.T, line []byte) {
	t.Helper()
	want, ok := referenceRecord(line)
	for _, d := range []*decoder{newDecoder(nil, 1), newDecoder(testRules(), 1)} {
		got, err := d.decode(line)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%q: decoder error %v is not ErrCorrupt", line, err)
			}
			continue
		}
		if !ok {
			t.Fatalf("%q: decoded %+v, which encoding/json with the line checksum refuses", line, got)
		}
		val := want.Event.Valuation
		same := got.Seq == want.Seq && got.Rule == want.Event.Rule && got.Idem == want.Idem
		rl := d.rules[want.Event.Rule]
		if got.Event != nil {
			vars := rl.Layout().Vars
			same = same && got.Event.Rule == rl && len(val) == len(vars)
			for _, v := range vars {
				gv, _ := got.Event.Value(v)
				wv, ok := val[v]
				same = same && ok && string(gv) == wv
			}
		}
		if !same {
			t.Fatalf("%q: decoded %+v, reference %+v", line, got, want)
		}
	}
}

// FuzzDecodeRecordLine: on arbitrary bytes, not only encoder output, the
// decoder accepts only lines that encoding/json with the line checksum
// accepts, and decodes the same record; and a line that is encoder output
// for a seq in the shape's range decodes into its event. The input's
// first line (its newline added when missing) is the line decoded, as
// scan would cut it, and so is that line with a matching CRC field.
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
			b = withCRC(string(body))
			checkDecodeAgrees(t, b)
		}
		want, ok := referenceRecord(b)
		if !ok || want.Seq < 0 || want.Seq >= 1e18 {
			return
		}
		e := slotEvent(want.Event.Rule, want.Event.Valuation)
		if bytes.Equal(encodeRecord(Record{Seq: want.Seq, Event: e, Idem: want.Idem}), b) {
			if got, err := newDecoder([]*rule.Rule{e.Rule}, 1).decode(b); err != nil || got.Event == nil {
				t.Fatalf("encoder line %q decoded to %+v, %v", b, got, err)
			}
		}
	})
}

// TestDecodeFixedTakesEncoderLines: every line encodeRecord writes for a
// record with a non-negative seq, escaped strings included, decodes into
// its event, and every seed agrees with encoding/json.
func TestDecodeFixedTakesEncoderLines(t *testing.T) {
	d := newDecoder(testRules(), 1)
	for i, r := range []Record{
		rec(0), rec(123456),
		{Seq: 9, Event: ev("pay", "p.1", "w0", "yp.1"), Idem: "k-9"},
		{Seq: 10, Event: ev("noop")},
		{Seq: 11, Event: ev("two", "a\"\\\b\f\n\r\t\x00\x1f<>&", "\u2028\u2029 ν12 ✓"), Idem: "<&>\u2028"},
	} {
		line := encodeRecord(r)
		got, err := d.decode(line)
		if err != nil || got.Seq != r.Seq || got.Idem != r.Idem || got.Event == nil || got.Event.Fingerprint() != r.Event.Fingerprint() {
			t.Fatalf("record %d: encoder line %q decoded to %+v, %v", i, line, got, err)
		}
		checkDecodeAgrees(t, line)
	}
	for _, s := range decodeSeeds(t) {
		checkDecodeAgrees(t, s)
	}
}

// TestDecodeIntoSlots: a record of a known rule is decoded into the
// decoder's arenas: its values share one string, which is the line's one
// allocation.
func TestDecodeIntoSlots(t *testing.T) {
	line := encodeRecord(Record{Seq: 3, Event: ev("pay", "p.1", "w0", "yp.1")})
	d := newDecoder(testRules(), 200)
	e, err := d.decode(line)
	if err != nil || e.Event == nil {
		t.Fatalf("decoded %+v (%v), want a slot event", e, err)
	}
	if got := e.Event.Fingerprint(); got != "pay{t↦p.1, w↦w0, y↦yp.1}" {
		t.Fatalf("event %s", got)
	}
	vals := e.Event.Vals()
	if unsafe.Add(unsafe.Pointer(unsafe.StringData(string(vals[0]))), 5) != unsafe.Pointer(unsafe.StringData(string(vals[2]))) {
		t.Fatal("the line's values are not one string")
	}
	if allocs := testing.AllocsPerRun(100, func() { d.decode(line) }); allocs != 1 {
		t.Fatalf("decoding a line into slots made %.0f allocations, want 1", allocs)
	}
}
