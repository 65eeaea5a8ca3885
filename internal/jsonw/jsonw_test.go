package jsonw

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
)

// WriteString writes exactly what json.Encoder writes for the same string,
// across every class of byte encoding/json treats specially.
func TestWriteStringMatchesEncoder(t *testing.T) {
	for _, s := range []string{
		"", "plain R@p(ν1, x)", `q"uote\back`, "<a>&b", "\x00\x01\x1f\b\f\n\r\t", "\x7f",
		"line\u2028par\u2029", "bad\xffutf8\xc3", "literal \ufffd", "日本 ∅ ✓",
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(s); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		w := bufio.NewWriter(&got)
		WriteString(w, s)
		w.WriteByte('\n')
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%q: got %s, want %s", s, got.String(), want.String())
		}
	}
}
