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

// AppendEscaped escapes each class of byte encoding/json treats specially,
// for string and []byte input alike, appending after what dst holds.
func TestAppendEscaped(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"", ""},
		{"plain R@p(ν1, x)", "plain R@p(ν1, x)"},
		{`q"uote\back`, `q\"uote\\back`},
		{"\x00\x01\x1f\x7f", `\u0000\u0001\u001f` + "\x7f"},
		{"\b\f\n\r\t", `\b\f\n\r\t`},
		{"<a>&b", `\u003ca\u003e\u0026b`},
		{"line\u2028par\u2029end", `line\u2028par\u2029end`},
		{"bad\xffutf8\xc3", `bad\ufffdutf8\ufffd`},
		{"\xe2\x80", `\ufffd\ufffd`},
		{"literal \ufffd \u2713", "literal \ufffd \u2713"},
	} {
		if got := string(AppendEscaped([]byte("x"), c.in)); got != "x"+c.want {
			t.Errorf("string %q: got %q, want %q", c.in, got, "x"+c.want)
		}
		if got := string(AppendEscaped([]byte("x"), []byte(c.in))); got != "x"+c.want {
			t.Errorf("[]byte %q: got %q, want %q", c.in, got, "x"+c.want)
		}
		if got := Plain(c.in); got != (c.in == c.want) {
			t.Errorf("Plain(%q) = %v, want %v", c.in, got, c.in == c.want)
		}
	}
}

// AppendEscaped writes what json.Marshal writes between its quotes, for
// any input given as a string or as bytes.
func FuzzAppendEscaped(f *testing.F) {
	for _, s := range []string{"", "plain", `"\`, "<>&", "\x00\x1f\x7f", "\u2028\u2029", "\xff\xc3(", "ν✓日本"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		want := b[1 : len(b)-1]
		if got := AppendEscaped(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("string %q: got %q, want %q", s, got, want)
		}
		if got := AppendEscaped(nil, []byte(s)); !bytes.Equal(got, want) {
			t.Fatalf("[]byte %q: got %q, want %q", s, got, want)
		}
		if got := Plain(s); got != (string(want) == s) {
			t.Fatalf("Plain(%q) = %v, want %v", s, got, string(want) == s)
		}
	})
}
