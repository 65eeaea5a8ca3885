// Package jsonw escapes and writes JSON strings byte for byte as
// encoding/json's default encoder would (HTML-escaping on), so a response
// streamed piece by piece stays identical to json.Encoder output.
// AppendEscaped is the one escaper, a port of encoding/json's own;
// WriteString wraps it. Write errors are left to the bufio.Writer, which
// keeps the first one and returns it from Flush.
package jsonw

import (
	"bufio"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// htmlSafe reports whether encoding/json writes the ASCII byte b verbatim
// between its quotes: b is no control character, '"', '\\', '<', '>' or
// '&'.
func htmlSafe(b byte) bool {
	return b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// AppendEscaped appends src as encoding/json writes it between quotes:
// '"' and '\\' backslashed, control characters as \b \f \n \r \t or
// \u00XX, '<' '>' '&' and U+2028/U+2029 as \uXXXX, and each byte of
// invalid UTF-8 as \ufffd.
func AppendEscaped[Bytes []byte | string](dst []byte, src Bytes) []byte {
	start := 0
	for i := 0; i < len(src); {
		if b := src[i]; b < utf8.RuneSelf {
			if htmlSafe(b) {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		n := min(len(src)-i, utf8.UTFMax)
		c, size := utf8.DecodeRuneInString(string(src[i : i+n]))
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, src[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(dst, src[start:]...)
}

// AppendString appends src as a JSON string literal, quotes included.
func AppendString[Bytes []byte | string](dst []byte, src Bytes) []byte {
	dst = append(dst, '"')
	dst = AppendEscaped(dst, src)
	return append(dst, '"')
}

// Plain reports whether encoding/json writes s verbatim between its
// quotes: s is valid UTF-8 with no byte or rune AppendEscaped rewrites.
func Plain(s string) bool {
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if !htmlSafe(b) {
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

// WriteString writes s as a JSON string literal.
func WriteString(w *bufio.Writer, s string) {
	w.Write(AppendString(w.AvailableBuffer(), s))
}

// WriteInt writes n as a JSON number.
func WriteInt(w *bufio.Writer, n int) {
	w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(n), 10))
}
