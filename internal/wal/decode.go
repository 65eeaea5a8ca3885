package wal

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"collabwf/internal/data"
	"collabwf/internal/program"
	"collabwf/internal/rule"
)

// Entry is one verified log record as recovery replays it: its sequence
// number, the name of its rule, its event and its idempotency key. Event
// is nil when the rule is none the replayer knows, or when the line does
// not name exactly the rule's variables, in their sorted order.
type Entry struct {
	Seq   int
	Rule  string
	Event *program.Event
	Idem  string
}

// decoder verifies and decodes the record lines of one recovery. The
// events it decodes live in two arenas sized from the line count, one of
// events and one of slot values, so a line of a known rule costs one
// allocation: the string its values share.
type decoder struct {
	// rules are the replayer's rules by name; nil without any.
	rules  map[string]*rule.Rule
	events []program.Event
	slots  []data.Value
	// buf collects a line's value bytes before they become one string;
	// name holds the name being matched.
	buf, name []byte
}

// newDecoder returns a decoder for at most lines records of the given
// rules.
func newDecoder(rules []*rule.Rule, lines int) *decoder {
	d := &decoder{}
	if len(rules) == 0 {
		return d
	}
	width := 0
	d.rules = make(map[string]*rule.Rule, len(rules))
	for _, rl := range rules {
		d.rules[rl.Name] = rl
		width = max(width, len(rl.Layout().Vars))
	}
	d.events = make([]program.Event, 0, lines)
	d.slots = make([]data.Value, 0, lines*width)
	return d
}

// errShape is the verdict on a line outside the shapes encodeHeader and
// encodeRecord write.
var errShape = fmt.Errorf("%w: not a line of this log format", ErrCorrupt)

// decode verifies and decodes one complete record line, newline included,
// of exactly the shape encodeRecord writes,
//
//	{"seq":N,"event":{"rule":"R","valuation":{"k":"v",…}}[,"idem":"K"],"crc":C}
//
// The CRC is checked first, over the line's own bytes. A string may hold
// any JSON escape but that of a UTF-16 surrogate, which jsonw never
// writes, and its raw bytes must be valid UTF-8 with no control byte. Any
// other line — surrounding space, another key case or order, a negative
// seq or one of more than 18 digits, a CRC that does not match — is
// corrupt. So the decoder accepts only lines encoding/json accepts, with
// the same record.
func (d *decoder) decode(line []byte) (e Entry, err error) {
	n := len(line)
	if n < 2 || line[n-1] != '\n' {
		return e, errShape
	}
	body, err := checkCRC(line[:n-1])
	if err != nil {
		return e, err
	}
	p := fixedParser{b: body}
	if !p.lit(`{"seq":`) {
		return e, errShape
	}
	seq, ok := parseUint(p.digits(), 18)
	if !ok || !p.lit(`,"event":{"rule":`) {
		return e, errShape
	}
	if d.name, ok = p.str(d.name[:0]); !ok || !p.lit(`,"valuation":{`) {
		return e, errShape
	}
	rl := d.rules[string(d.name)]
	var vars []string
	if rl != nil {
		e.Rule, vars = rl.Name, rl.Layout().Vars
	} else {
		e.Rule = string(d.name)
	}
	// The values' bytes are copied into d.buf, the j-th from at[j].
	var atBuf [8]int
	at := atBuf[:0]
	match := rl != nil
	d.buf = d.buf[:0]
	for j := 0; !p.lit(`}`); j++ {
		if j > 0 && !p.lit(`,`) {
			return e, errShape
		}
		if d.name, ok = p.str(d.name[:0]); !ok || !p.lit(`:`) {
			return e, errShape
		}
		match = match && j < len(vars) && string(d.name) == vars[j]
		at = append(at, len(d.buf))
		if d.buf, ok = p.str(d.buf); !ok {
			return e, errShape
		}
	}
	if !p.lit(`}`) {
		return e, errShape
	}
	if p.lit(`,"idem":`) {
		if d.name, ok = p.str(d.name[:0]); !ok {
			return e, errShape
		}
		if len(d.name) > 0 {
			e.Idem = string(d.name)
		}
	}
	if len(p.b) != 0 {
		return e, errShape
	}
	e.Seq = int(seq)
	if match && len(at) == len(vars) {
		e.Event = d.event(rl, at)
	}
	return e, nil
}

// checkCRC verifies a line (its newline cut) that ends in its CRC field,
// the CRC of the bytes before that field and a closing brace, and returns
// those bytes.
func checkCRC(line []byte) ([]byte, error) {
	n := len(line)
	i := bytes.LastIndex(line, []byte(crcField))
	if i < 0 || line[n-1] != '}' {
		return nil, errShape
	}
	crc, ok := parseUint(line[i+len(crcField):n-1], 10)
	if !ok || crc > 1<<32-1 {
		return nil, errShape
	}
	body := line[:i]
	if sum := crc32.Update(crc32.Checksum(body, castagnoli()), castagnoli(), closeBrace); sum != uint32(crc) {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, crc, sum)
	}
	return body, nil
}

// event builds the event of rl whose j-th slot value is d.buf from at[j]
// to at[j+1], in the decoder's arenas.
func (d *decoder) event(rl *rule.Rule, at []int) *program.Event {
	if cap(d.slots)-len(d.slots) < len(at) {
		d.slots = make([]data.Value, 0, max(len(at), cap(d.slots)))
	}
	n := len(d.slots)
	d.slots = d.slots[:n+len(at)]
	vals := d.slots[n:len(d.slots):len(d.slots)]
	s := string(d.buf)
	for j := range at {
		end := len(s)
		if j+1 < len(at) {
			end = at[j+1]
		}
		vals[j] = data.Value(s[at[j]:end])
	}
	if len(d.events) == cap(d.events) {
		d.events = make([]program.Event, 0, max(1, cap(d.events)))
	}
	d.events = append(d.events, program.MakeEvent(rl, vals))
	return &d.events[len(d.events)-1]
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

// str consumes a JSON string and appends its value to dst: the bytes
// between the quotes, each escape resolved. It refuses the escape of a
// UTF-16 surrogate, a raw control byte and raw bytes that are not valid
// UTF-8, none of which jsonw writes.
func (p *fixedParser) str(dst []byte) ([]byte, bool) {
	b := p.b
	if len(b) == 0 || b[0] != '"' {
		return dst, false
	}
	from, ascii, start := len(dst), true, 1
	for i := 1; i < len(b); i++ {
		c := b[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			ascii = ascii && c < utf8.RuneSelf
			continue
		}
		dst = append(dst, b[start:i]...)
		switch c {
		case '"':
			// Escapes write valid UTF-8, so the value is valid iff its raw
			// bytes are.
			if !ascii && !utf8.Valid(dst[from:]) {
				return dst, false
			}
			p.b = b[i+1:]
			return dst, true
		case '\\':
			if i+1 == len(b) {
				return dst, false
			}
			r, n := unescape(b[i+1:])
			if n == 0 {
				return dst, false
			}
			dst = utf8.AppendRune(dst, r)
			i += n
			start = i + 1
		default:
			return dst, false
		}
	}
	return dst, false
}

// unescape decodes the JSON escape that b starts with, after its
// backslash: its rune and length, or n = 0 for an invalid escape or one of
// a UTF-16 surrogate.
func unescape(b []byte) (r rune, n int) {
	if i := strings.IndexByte(`"\/bfnrt`, b[0]); i >= 0 {
		return rune("\"\\/\b\f\n\r\t"[i]), 1
	}
	if len(b) < 5 || b[0] != 'u' {
		return 0, 0
	}
	v, err := strconv.ParseUint(string(b[1:5]), 16, 16)
	if err != nil || utf16.IsSurrogate(rune(v)) {
		return 0, 0
	}
	return rune(v), 5
}
