package server

import (
	"regexp"
	"strings"
	"testing"
)

// runIDOracle is the run-id grammar as the regexp validRunID replaces.
var runIDOracle = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

var runIDCases = []string{
	"", "a", "Z", "0", "default", "run-1", "run_1", "run.1", "a.b-c_d",
	"-a", ".a", "_a", "..", ".", "a/b", "a b", "a\n", "\na", "a\x00",
	"héllo", "ν1", "a:b", "a+b", "A9", "9A", "a..",
	strings.Repeat("a", 63), strings.Repeat("a", 64), strings.Repeat("a", 65),
	"a" + strings.Repeat("-", 63), "a" + strings.Repeat("-", 64),
}

// TestValidRunIDMatchesRegexp holds the byte loop to the regexp on a table
// of boundaries: length 0, 64 and 65, leading separators, newlines (which
// the regexp's $ does not admit), NUL and multi-byte UTF-8.
func TestValidRunIDMatchesRegexp(t *testing.T) {
	for _, id := range runIDCases {
		if got, want := validRunID(id), runIDOracle.MatchString(id); got != want {
			t.Errorf("validRunID(%q) = %v, regexp says %v", id, got, want)
		}
	}
}

func FuzzValidRunID(f *testing.F) {
	for _, id := range runIDCases {
		f.Add(id)
	}
	f.Fuzz(func(t *testing.T, id string) {
		if got, want := validRunID(id), runIDOracle.MatchString(id); got != want {
			t.Fatalf("validRunID(%q) = %v, regexp says %v", id, got, want)
		}
	})
}
