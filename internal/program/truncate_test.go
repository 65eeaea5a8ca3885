package program

import (
	"testing"

	"collabwf/internal/data"
)

// Truncate must restore the run to an earlier prefix exactly: instance and
// freshness ledger both roll back so the dropped suffix can be replayed (or
// replaced) as if it never happened.
func TestRunTruncate(t *testing.T) {
	p := hiringProgram(t)
	r := NewRun(p)
	bind := map[string]data.Value{"x": "alice"}
	if _, err := r.FireRule("clear", bind); err != nil {
		t.Fatal(err)
	}
	fp1 := r.Current().Fingerprint()
	if _, err := r.FireRule("cfo_ok", bind); err != nil {
		t.Fatal(err)
	}
	if _, err := r.FireRule("approve", bind); err != nil {
		t.Fatal(err)
	}
	fp3 := r.Current().Fingerprint()
	r.Truncate(1)
	if r.Len() != 1 {
		t.Fatalf("Len=%d after Truncate(1)", r.Len())
	}
	if got := r.Current().Fingerprint(); got != fp1 {
		t.Fatalf("state after Truncate(1):\n got %s\nwant %s", got, fp1)
	}
	// The dropped events' values are forgotten; replaying the same suffix
	// must succeed and reconverge.
	if _, err := r.FireRule("cfo_ok", bind); err != nil {
		t.Fatalf("replay cfo_ok: %v", err)
	}
	if _, err := r.FireRule("approve", bind); err != nil {
		t.Fatalf("replay approve: %v", err)
	}
	if got := r.Current().Fingerprint(); got != fp3 {
		t.Fatalf("state after replay:\n got %s\nwant %s", got, fp3)
	}
	if r.ViewAt(2, "sue") == nil {
		t.Fatal("view after replay")
	}

	// Truncating to 0 forgets the fresh value "alice" entirely: the rule
	// that introduced it can fire again with the same binding.
	r.Truncate(0)
	if r.Len() != 0 {
		t.Fatalf("Len=%d after Truncate(0)", r.Len())
	}
	if _, err := r.FireRule("clear", bind); err != nil {
		t.Fatalf("refire clear after Truncate(0): %v", err)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Truncate out of range must panic")
		}
	}()
	r.Truncate(5)
}
