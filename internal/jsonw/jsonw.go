// Package jsonw escapes and writes JSON strings byte for byte as
// encoding/json's default encoder would (HTML-escaping on), so a response
// streamed piece by piece stays identical to json.Encoder output. Write
// errors are left to the bufio.Writer, which keeps the first one and
// returns it from Flush.
package jsonw

import (
	"bufio"
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

// plain reports whether encoding/json writes s verbatim between its
// quotes: s is valid UTF-8 with no control character, '"', '\\', '<', '>',
// '&', U+2028 or U+2029.
func plain(s string) bool {
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b < 0x20 || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return false
		}
		i += size
	}
	return true
}

// Escape returns s as encoding/json writes it between quotes; a plain s
// comes back unchanged, without a copy.
func Escape(s string) string {
	if plain(s) {
		return s
	}
	b, _ := json.Marshal(s) // a string always marshals
	return string(b[1 : len(b)-1])
}

// WriteString writes s as a JSON string literal.
func WriteString(w *bufio.Writer, s string) {
	w.WriteByte('"')
	w.WriteString(Escape(s))
	w.WriteByte('"')
}

// WriteInt writes n as a JSON number.
func WriteInt(w *bufio.Writer, n int) {
	w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(n), 10))
}
