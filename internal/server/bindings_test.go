package server

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"collabwf/internal/declog"
	"collabwf/internal/trace"
	"collabwf/internal/wal"
)

// A /submit binding that names no variable of the rule is rejected as
// not_applicable (409), with a detail that names it, and nothing of it
// reaches the run, the WAL or the decision log's accepted records; the
// same submission without it is accepted.
func TestSubmitRejectsUnknownBinding(t *testing.T) {
	dir := t.TempDir()
	dl, flush := newTestDeclog(t)
	c := newCoordinator(t, "Crowdsourcing", crowdProgram(t), DurabilityConfig{Dir: dir, Sync: wal.SyncNever, DecisionLog: dl})
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		return resp.StatusCode, out.String()
	}
	code, body := post(`{"peer":"requester","rule":"post","bindings":{"t":"p.1","d":"dp.1","bogus":"b"}}`)
	if code != http.StatusConflict || !strings.Contains(body, "has no variable bogus") {
		t.Fatalf("submit with an unknown binding: %d %s", code, body)
	}
	if c.Len() != 0 {
		t.Fatalf("rejected submission left %d events", c.Len())
	}
	if code, body := post(`{"peer":"requester","rule":"post","bindings":{"t":"p.1","d":"dp.1"}}`); code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, body)
	}
	recs := flush()
	rej := find(recs, declog.KindSubmit, declog.Rejected)
	if len(rej) != 1 || rej[0].Reason != "not_applicable" || !strings.Contains(rej[0].Detail, "bogus") {
		t.Fatalf("rejection records %+v", rej)
	}
	if acc := find(recs, declog.KindSubmit, declog.Accepted); len(acc) != 1 || !maps.Equal(acc[0].Valuation, map[string]string{"t": "p.1", "d": "dp.1"}) {
		t.Fatalf("acceptance records %+v", acc)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if log, err := os.ReadFile(filepath.Join(dir, "wal.log")); err != nil || bytes.Contains(log, []byte("bogus")) {
		t.Fatalf("wal.log %q (%v)", log, err)
	}
}

// A record written before /submit rejected such bindings is upgraded with
// the name that is no variable of the rule dropped, from a checksummed
// line and a legacy line without a checksum alike, and /trace shows the
// events without it. A log of this format naming it is refused.
func TestRecoverDropsUnknownBinding(t *testing.T) {
	dir := t.TempDir()
	log := legacyLine(`{"seq":0,"event":{"rule":"post","valuation":{"bogus":"b","d":"dp.1","t":"p.1"}}`) +
		`{"seq":1,"event":{"rule":"claim0","valuation":{"c":"c0p.1","extra":"e","t":"p.1","d":"dp.1"}}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Upgrade(dir, "Crowdsourcing", crowdProgram(t)); err != nil {
		t.Fatal(err)
	}
	c := newCoordinator(t, "Crowdsourcing", crowdProgram(t), DurabilityConfig{Dir: dir, Sync: wal.SyncNever})
	defer c.Close()
	if c.Len() != 2 {
		t.Fatalf("recovered %d events, want 2", c.Len())
	}
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr trace.Trace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	want := []map[string]string{{"t": "p.1", "d": "dp.1"}, {"c": "c0p.1", "t": "p.1", "d": "dp.1"}}
	if len(tr.Events) != 2 || !maps.Equal(tr.Events[0].Valuation, want[0]) || !maps.Equal(tr.Events[1].Valuation, want[1]) {
		t.Fatalf("/trace events %+v, want valuations %v", tr.Events, want)
	}
}

// TestStampedLogKeepsUnknownBindingOut: in a log of this format, a record
// that names a name that is no variable of its rule — a checksummed line
// this version never writes — fails recovery under either policy.
func TestStampedLogKeepsUnknownBindingOut(t *testing.T) {
	dir := t.TempDir()
	newCoordinator(t, "Crowdsourcing", crowdProgram(t), DurabilityConfig{Dir: dir, Sync: wal.SyncNever}).Close()
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(legacyLine(`{"seq":0,"event":{"rule":"post","valuation":{"bogus":"b","d":"dp.1","t":"p.1"}}`))
	f.Close()
	for _, strict := range []bool{false, true} {
		if _, err := NewDurable("Crowdsourcing", crowdProgram(t), DurabilityConfig{Dir: dir, Strict: strict}); err == nil || !strings.Contains(err.Error(), "record 0") {
			t.Fatalf("strict=%v: recovery of a record binding bogus = %v", strict, err)
		}
	}
}
