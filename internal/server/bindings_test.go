package server

import (
	"bytes"
	"context"
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

// A record written before /submit rejected such bindings still replays:
// recovery drops the name that is no variable of the rule, from a line of
// the writer's fixed shape and from a legacy line without a checksum
// alike, and /trace shows the events without it.
func TestRecoverDropsUnknownBinding(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := l.AppendBuffered(context.Background(), wal.Record{Seq: 0, Event: trace.EventRecord{Rule: "post",
		Valuation: map[string]string{"t": "p.1", "d": "dp.1", "bogus": "b"}}})
	if err != nil || cm.Wait() != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":1,"event":{"rule":"claim0","valuation":{"c":"c0p.1","extra":"e","t":"p.1","d":"dp.1"}}}` + "\n")
	f.Close()

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
