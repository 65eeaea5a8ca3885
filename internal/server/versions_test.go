package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/wal"
)

// fullVersionOracle returns a snapshot of s's prefix whose every step keeps
// its instance version, as every step did before released steps dropped
// theirs: the events are appended again to a run that is never released.
// It shares s's frozen explainers, which read no instance.
func fullVersionOracle(t *testing.T, s *snapshot) *snapshot {
	t.Helper()
	full := program.NewRunFrom(s.prog, s.initial)
	for _, e := range s.events() {
		if err := full.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	return &snapshot{name: s.name, prog: s.prog, initial: full.Initial,
		steps: full.Steps, last: full.Current(), exp: s.exp}
}

// streamed is what write writes through a bufio.Writer.
func streamed(write func(*bufio.Writer)) []byte {
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	write(w)
	w.Flush()
	return b.Bytes()
}

// Every /view, /transitions (each peer, from every index 0…len+1) and
// /explain answer of a released run — built by submissions, and recovered
// from its log by an in-place replay — is byte-identical to the answer
// rendered from a run that keeps every instance version. The crowd tasks
// span several kept versions, and their keys and descriptions carry every
// kind of character JSON escapes.
func TestReadsMatchFullVersions(t *testing.T) {
	prog := crowdProgram(t)
	dir := t.TempDir()
	written, err := NewDurable("Crowdsourcing", prog, DurabilityConfig{Dir: dir, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	driveCrowd(t, written, 12, nil)
	submitted := New("Crowdsourcing", prog)
	driveCrowd(t, submitted, 12, nil)
	if err := written.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := NewDurable("Crowdsourcing", prog, DurabilityConfig{Dir: dir, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	for _, c := range []*Coordinator{submitted, recovered} {
		label := "submitted"
		if c.Durable() {
			label = "recovered"
		}
		h := NewHandler(c, HTTPOptions{RequestTimeout: 30 * time.Second})
		get := func(path string) []byte {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != 200 {
				t.Fatalf("%s: GET %s -> %d", label, path, rec.Code)
			}
			return rec.Body.Bytes()
		}
		s := c.snap.Load()
		oracle := fullVersionOracle(t, s)
		n := s.Len()
		kept := 0
		for _, st := range s.steps {
			if st.Instance != nil {
				kept++
			}
		}
		if n != 84 || kept != 2 {
			t.Fatalf("%s: %d events keeping %d versions, want 84 keeping 2 (I₃₁, I₆₃)", label, n, kept)
		}
		for _, peer := range prog.Peers() {
			check := func(path string, got, want []byte) {
				t.Helper()
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: GET %s:\n got %s\nwant %s", label, path, got, want)
				}
			}
			path := "/view?peer=" + string(peer)
			check(path, get(path), streamed(func(w *bufio.Writer) { oracle.writeViewJSON(w, peer) }))
			path = "/explain?peer=" + string(peer)
			check(path, get(path), streamed(func(w *bufio.Writer) { oracle.exp[peer].WriteJSON(w, oracle, nil) }))
			for from := 0; from <= n+1; from++ {
				path := fmt.Sprintf("/transitions?peer=%s&from=%d", peer, from)
				check(path, get(path), streamed(func(w *bufio.Writer) { oracle.writeTransitionsJSON(w, peer, from) }))
			}
			ts, _, err := c.Transitions(peer, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range ts {
				want := schema.ViewOf(oracle.steps[tr.Index].Instance, prog.Schema, peer).String()
				if tr.View != want {
					t.Fatalf("%s: Transitions(%s) view at %d = %q, want %q", label, peer, tr.Index, tr.View, want)
				}
			}
		}
	}
}
