package wal

import (
	"bytes"
	"hash/crc32"
	"unicode/utf8"

	"collabwf/internal/data"
	"collabwf/internal/query"
)

// Entry is one verified log record as recovery replays it: its sequence
// number, its event's rule name and valuation, decoded straight into the
// query.Valuation the replayed event adopts, and its idempotency key.
type Entry struct {
	Seq  int
	Rule string
	Val  query.Valuation
	Idem string
}

// decoder verifies and decodes the record lines of one recovery. It
// interns the rule names, variables and values it reads, so a value every
// event of an episode binds is one string however many records hold it.
type decoder struct {
	strs map[string]string
}

func newDecoder(records int) *decoder {
	return &decoder{strs: make(map[string]string, records)}
}

// intern returns b as a string, allocating each distinct string once.
func (d *decoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// decode verifies and decodes one complete record line, newline included.
// A line in the fixed shape encodeRecord writes is decoded by decodeFixed;
// every other line goes through verifyRecord's encoding/json path, so each
// line is accepted or rejected, and decoded, exactly as verifyRecord alone
// would do it.
func (d *decoder) decode(line []byte) (Entry, error) {
	if e, ok := d.decodeFixed(line); ok {
		return e, nil
	}
	rec, err := verifyRecord(line)
	if err != nil {
		return Entry{}, err
	}
	val := make(query.Valuation, len(rec.Event.Valuation))
	for k, v := range rec.Event.Valuation {
		val[k] = data.Value(v)
	}
	return Entry{Seq: rec.Seq, Rule: rec.Event.Rule, Val: val, Idem: rec.Idem}, nil
}

// decodeFixed decodes a line of exactly the shape encodeRecord writes for a
// checksummed record,
//
//	{"seq":N,"event":{"rule":"R","valuation":{"k":"v",…}}[,"idem":"K"],"crc":C}
//
// followed by its newline. The CRC is checked first, over the line's own
// bytes. ok is false for any line outside that shape: surrounding space,
// another key case or order, a negative seq or one of more than 18 digits,
// a string holding an escape, a control byte or invalid UTF-8, a CRC of 0,
// or a CRC that does not match. On such a line encoding/json and
// lineChecksum decide, so decodeFixed accepts only lines they accept, with
// the same record.
func (d *decoder) decodeFixed(line []byte) (e Entry, ok bool) {
	n := len(line)
	if n < 2 || line[0] != '{' || line[n-2] != '}' || line[n-1] != '\n' {
		return e, false
	}
	line = line[:n-2]
	i := bytes.LastIndex(line, []byte(crcField))
	if i < 0 {
		return e, false
	}
	crc, ok := parseUint(line[i+len(crcField):], 10)
	if !ok || crc == 0 || crc > 1<<32-1 {
		return e, false
	}
	body := line[:i]
	if crc32.Update(crc32.Checksum(body, castagnoli), castagnoli, closeBrace) != uint32(crc) {
		return e, false
	}
	p := fixedParser{b: body}
	if !p.lit(`{"seq":`) {
		return e, false
	}
	seq, ok := parseUint(p.digits(), 18)
	if !ok || !p.lit(`,"event":{"rule":`) {
		return e, false
	}
	rule, ok := p.str()
	if !ok || !p.lit(`,"valuation":{`) {
		return e, false
	}
	// Collect the pairs first, so the map is made at its size.
	var pairs [8][2][]byte
	kv := pairs[:0]
	if !p.lit(`}`) {
		for {
			k, ok := p.str()
			if !ok || !p.lit(`:`) {
				return e, false
			}
			v, ok := p.str()
			if !ok {
				return e, false
			}
			kv = append(kv, [2][]byte{k, v})
			if p.lit(`}`) {
				break
			}
			if !p.lit(`,`) {
				return e, false
			}
		}
	}
	if !p.lit(`}`) {
		return e, false
	}
	var idem []byte
	if p.lit(`,"idem":`) {
		if idem, ok = p.str(); !ok {
			return e, false
		}
	}
	if len(p.b) != 0 {
		return e, false
	}
	e = Entry{Seq: int(seq), Rule: d.intern(rule), Val: make(query.Valuation, len(kv))}
	for _, pair := range kv {
		// A repeated key keeps its last value, as encoding/json does.
		e.Val[d.intern(pair[0])] = data.Value(d.intern(pair[1]))
	}
	if len(idem) > 0 {
		e.Idem = string(idem)
	}
	return e, true
}

// parseUint parses b as a canonical JSON unsigned integer of at most max
// digits: no sign, and no leading zero unless b is "0".
func parseUint(b []byte, max int) (uint64, bool) {
	if len(b) == 0 || len(b) > max || (b[0] == '0' && len(b) > 1) {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

// fixedParser consumes a record body from the front.
type fixedParser struct {
	b []byte
}

// lit consumes s if the body starts with it.
func (p *fixedParser) lit(s string) bool {
	if len(p.b) < len(s) || string(p.b[:len(s)]) != s {
		return false
	}
	p.b = p.b[len(s):]
	return true
}

// digits consumes the leading ASCII digits.
func (p *fixedParser) digits() []byte {
	i := 0
	for i < len(p.b) && p.b[i] >= '0' && p.b[i] <= '9' {
		i++
	}
	out := p.b[:i]
	p.b = p.b[i:]
	return out
}

// str consumes a JSON string that encoding/json decodes to its own bytes:
// valid UTF-8 with no escape and no control byte. It returns the bytes
// between the quotes.
func (p *fixedParser) str() ([]byte, bool) {
	if len(p.b) == 0 || p.b[0] != '"' {
		return nil, false
	}
	ascii := true
	for i := 1; i < len(p.b); i++ {
		switch c := p.b[i]; {
		case c == '"':
			s := p.b[1:i]
			if !ascii && !utf8.Valid(s) {
				return nil, false
			}
			p.b = p.b[i+1:]
			return s, true
		case c < 0x20 || c == '\\':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}
