package wal

import (
	"bytes"
	"hash/crc32"
	"unicode/utf8"

	"collabwf/internal/data"
	"collabwf/internal/program"
	"collabwf/internal/query"
	"collabwf/internal/rule"
)

// Entry is one verified log record as recovery replays it: its sequence
// number, its event and its idempotency key. A line of the fixed shape
// whose rule is one of the replayer's program, and which binds every
// variable of the rule, is decoded straight into the event's slots: Event
// is that event, and a name that is no variable of the rule is dropped.
// Any other record keeps its valuation as the line names it, in Val, for
// the replayer to turn into an event or reject.
type Entry struct {
	Seq   int
	Rule  string
	Event *program.Event
	Val   query.Valuation
	Idem  string
}

// decoder verifies and decodes the record lines of one recovery. The
// events it decodes into slots live in two arenas sized from the line
// count, one of events and one of slot values, so a line of the fixed
// shape costs one allocation: the string its values share.
type decoder struct {
	// rules are the program's rules by name; nil without a program.
	rules  map[string]*rule.Rule
	events []program.Event
	slots  []data.Value
	// buf collects a line's value bytes before they become one string.
	buf []byte
}

// newDecoder returns a decoder for at most lines records of the given
// rules (none: keep every valuation a map).
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
	e := Entry{Seq: rec.Seq, Rule: rec.Event.Rule, Idem: rec.Idem}
	e.Val = make(query.Valuation, len(rec.Event.Valuation))
	for k, v := range rec.Event.Valuation {
		e.Val[k] = data.Value(v)
	}
	return e, nil
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
	name, ok := p.str()
	if !ok || !p.lit(`,"valuation":{`) {
		return e, false
	}
	// Collect the pairs first: the line must be whole before any of it is
	// kept.
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
	e.Seq = int(seq)
	if len(idem) > 0 {
		e.Idem = string(idem)
	}
	if rl := d.rules[string(name)]; rl != nil {
		e.Rule = rl.Name
		if e.Event = d.event(rl, kv); e.Event != nil {
			return e, true
		}
	} else {
		e.Rule = string(name)
	}
	e.Val = make(query.Valuation, len(kv))
	for _, pair := range kv {
		// A repeated key keeps its last value, as encoding/json does.
		e.Val[string(pair[0])] = data.Value(pair[1])
	}
	return e, true
}

// event builds the event of rl binding the (name, value) pairs kv, in the
// decoder's arenas, or returns nil when kv leaves a variable of rl unbound
// (or rl has more variables than a mask holds). A pair naming no variable
// of rl is dropped, and a repeated name keeps its last value.
func (d *decoder) event(rl *rule.Rule, kv [][2][]byte) *program.Event {
	vars := rl.Layout().Vars
	if len(vars) > 64 {
		return nil
	}
	// The values' bytes are copied into d.buf, pair j's at at[j], and
	// become one string that the slots share.
	var atBuf, idxBuf [8]int
	at, idx := atBuf[:0], idxBuf[:0]
	var bound uint64
	d.buf = d.buf[:0]
	for _, pair := range kv {
		i := 0
		for i < len(vars) && vars[i] != string(pair[0]) {
			i++
		}
		if i == len(vars) {
			continue
		}
		at = append(at, len(d.buf))
		idx = append(idx, i)
		d.buf = append(d.buf, pair[1]...)
		bound |= 1 << i
	}
	if bound != 1<<len(vars)-1 {
		return nil
	}
	if cap(d.slots)-len(d.slots) < len(vars) {
		d.slots = make([]data.Value, 0, max(len(vars), cap(d.slots)))
	}
	n := len(d.slots)
	d.slots = d.slots[:n+len(vars)]
	vals := d.slots[n:len(d.slots):len(d.slots)]
	s := string(d.buf)
	for j, i := range idx {
		end := len(s)
		if j+1 < len(at) {
			end = at[j+1]
		}
		vals[i] = data.Value(s[at[j]:end])
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
