package server

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"collabwf/internal/client"
	"collabwf/internal/data"
	"collabwf/internal/declog"
	"collabwf/internal/design"
	"collabwf/internal/transparency"
	"collabwf/internal/wal"
	"collabwf/internal/workload"
)

// newTestDeclog wires a fresh logger over a capture buffer. flush drains it
// and returns the decoded records.
func newTestDeclog(t *testing.T) (*declog.Logger, func() []declog.Decision) {
	t.Helper()
	var buf bytes.Buffer
	sink := declog.NewWriterSink(&buf, "test")
	l, err := declog.New(declog.Config{Sink: sink, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close(context.Background()) })
	return l, func() []declog.Decision {
		l.Flush(context.Background())
		var out []declog.Decision
		dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
		for dec.More() {
			var d declog.Decision
			if err := dec.Decode(&d); err != nil {
				t.Fatal(err)
			}
			out = append(out, d)
		}
		return out
	}
}

func find(recs []declog.Decision, kind, decision string) []declog.Decision {
	var out []declog.Decision
	for _, d := range recs {
		if d.Kind == kind && d.Decision == decision {
			out = append(out, d)
		}
	}
	return out
}

func TestCoordinatorEmitsSubmissionDecisions(t *testing.T) {
	l, flush := newTestDeclog(t)
	c := newCoordinator(t, "Hiring", workload.Hiring(), DurabilityConfig{DecisionLog: l})

	res, err := c.Submit("hr", "clear", nil)
	if err != nil {
		t.Fatal(err)
	}
	cand := data.Value(strings.TrimSuffix(strings.TrimPrefix(res.Updates[0], "+Cleared("), ")"))
	if _, err := c.Submit("hr", "nope", nil); err == nil {
		t.Fatal("unknown rule must be rejected")
	}
	if _, err := c.Submit("sue", "clear", nil); err == nil {
		t.Fatal("wrong peer must be rejected")
	}
	if _, err := c.Submit("ceo", "approve", map[string]data.Value{"x": "ghost"}); err == nil {
		t.Fatal("inapplicable rule must be rejected")
	}
	if _, err := c.Submit("cfo", "cfo_ok", map[string]data.Value{"x": cand}); err != nil {
		t.Fatal(err)
	}

	recs := flush()
	acc := find(recs, declog.KindSubmit, declog.Accepted)
	if len(acc) != 2 {
		t.Fatalf("accepted records: %d, want 2", len(acc))
	}
	if acc[0].Rule != "clear" || acc[0].Index != 0 || acc[0].Workflow != "Hiring" {
		t.Fatalf("accept record=%+v", acc[0])
	}
	if acc[1].Rule != "cfo_ok" || acc[1].Valuation["x"] != string(cand) {
		t.Fatalf("accept record must carry the valuation: %+v", acc[1])
	}
	rej := find(recs, declog.KindSubmit, declog.Rejected)
	reasons := map[string]bool{}
	for _, d := range rej {
		reasons[d.Reason] = true
	}
	for _, want := range []string{"unknown_rule", "wrong_peer", "not_applicable"} {
		if !reasons[want] {
			t.Fatalf("missing %s rejection in %v", want, reasons)
		}
	}

	// The stream must audit clean against the same program.
	var jsonl bytes.Buffer
	enc := json.NewEncoder(&jsonl)
	for _, d := range recs {
		if err := enc.Encode(d); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := declog.Audit(workload.Hiring(), &jsonl, declog.AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("coordinator's own log fails its audit: %v", rep.Mismatches)
	}
}

func TestCoordinatorEmitsGuardAndCertifyDecisions(t *testing.T) {
	staged, err := design.Staged(workload.Hiring(), "sue")
	if err != nil {
		t.Fatal(err)
	}
	l, flush := newTestDeclog(t)
	c := newCoordinator(t, "Staged", staged, DurabilityConfig{DecisionLog: l,
		Guards: map[string]int{"sue": 2}})

	c.Submit("hr", "stage_refresh_hr", nil)
	res, _ := c.Submit("hr", "clear", nil)
	cand := data.Value(strings.TrimSuffix(strings.TrimPrefix(res.Updates[0], "+Cleared("), ")"))
	c.Submit("cfo", "stage_refresh_cfo", nil)
	c.Submit("cfo", "cfo_ok", map[string]data.Value{"x": cand})
	c.Submit("ceo", "approve", map[string]data.Value{"x": cand})
	if _, err := c.Submit("hr", "hire", map[string]data.Value{"x": cand}); err == nil {
		t.Fatal("over-budget hire must be rejected by the guard")
	}
	recs := flush()
	if g := find(recs, declog.KindGuard, declog.Installed); len(g) != 1 || g[0].Peer != "sue" || g[0].H != 2 {
		t.Fatalf("guard records=%+v", g)
	}
	grej := find(recs, declog.KindSubmit, declog.Rejected)
	var guardRej *declog.Decision
	for i := range grej {
		if grej[i].Reason == "guard" {
			guardRej = &grej[i]
		}
	}
	if guardRej == nil || guardRej.Guarded != "sue" || guardRej.Detail == "" ||
		guardRej.Rule != "hire" || len(guardRej.Valuation) == 0 {
		t.Fatalf("guard rejection=%+v", guardRej)
	}
}

func TestCoordinatorEmitsCertifyDecisions(t *testing.T) {
	l, flush := newTestDeclog(t)
	c := newCoordinator(t, "Hiring", workload.Hiring(), DurabilityConfig{DecisionLog: l})

	// Hiring is not transparent for sue, so certification reports the
	// violation as an error to the caller and a violation to the log.
	err := c.Certify(context.Background(), "sue", 3,
		transparency.Options{PoolFresh: 2, MaxTuplesPerRelation: 1})
	if err == nil {
		t.Fatal("certify must report the transparency violation")
	}
	if err := c.Certify(context.Background(), "nobody", 3, transparency.Options{}); err == nil {
		t.Fatal("unknown peer must fail")
	}

	recs := flush()
	viol := find(recs, declog.KindCertify, declog.Violation)
	if len(viol) != 1 || viol[0].H != 3 || viol[0].Reason == "" {
		t.Fatalf("certify violation records=%+v", viol)
	}
	if viol[0].Search == nil || viol[0].Search.Nodes == 0 {
		t.Fatalf("certify record must carry search effort: %+v", viol[0].Search)
	}
	if viol[0].DurationNS <= 0 {
		t.Fatalf("certify record must carry latency: %+v", viol[0])
	}
	cerr := find(recs, declog.KindCertify, declog.Errored)
	if len(cerr) != 1 || cerr[0].Reason != "unknown_peer" {
		t.Fatalf("certify error records=%+v", cerr)
	}
}

func TestCoordinatorEmitsExplainAndReplayDecisions(t *testing.T) {
	l, flush := newTestDeclog(t)
	c := newCoordinator(t, "Hiring", workload.Hiring(), DurabilityConfig{DecisionLog: l})
	ctx := context.Background()

	if _, err := c.SubmitIdemCtx(ctx, "hr", "clear", nil, "key-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitIdemCtx(ctx, "hr", "clear", nil, "key-1"); err != nil {
		t.Fatal(err)
	}
	write, err := c.ExplainCtx(ctx, "sue")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	bw := bufio.NewWriter(&body)
	write(bw)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	var resp struct{ Text string }
	if err := json.Unmarshal(body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Explain("sue")
	if err != nil {
		t.Fatal(err)
	}
	text := resp.Text
	if text != rep.String() {
		t.Fatalf("ExplainCtx text %q, report renders %q", text, rep.String())
	}
	if _, err := c.ExplainCtx(ctx, "nobody"); err == nil {
		t.Fatal("unknown peer must fail")
	}

	recs := flush()
	if acc := find(recs, declog.KindSubmit, declog.Accepted); len(acc) != 1 {
		t.Fatalf("accepted=%d, want 1 (idempotent retry must not re-accept)", len(acc))
	}
	replays := find(recs, declog.KindSubmit, declog.Replayed)
	if len(replays) != 1 || replays[0].IdemKey != "key-1" || replays[0].Index != 0 {
		t.Fatalf("replay records=%+v", replays)
	}
	served := find(recs, declog.KindExplain, declog.Served)
	if len(served) != 1 || served[0].Peer != "sue" || served[0].RunLen != 1 {
		t.Fatalf("explain records=%+v", served)
	}
	if served[0].Digest != declog.Digest(text) {
		t.Fatalf("explain digest %s does not match the served report", served[0].Digest)
	}
	if e := find(recs, declog.KindExplain, declog.Errored); len(e) != 1 {
		t.Fatalf("explain error records=%+v", e)
	}
}

// The digest a served /explain records is the digest of the text that
// response carried: the report is rendered once, for both.
func TestServedExplainTextMatchesDigest(t *testing.T) {
	l, flush := newTestDeclog(t)
	c := newCoordinator(t, "Hiring", workload.Hiring(), DurabilityConfig{DecisionLog: l})
	for _, rule := range []string{"clear", "clear"} {
		if _, err := c.Submit("hr", rule, nil); err != nil {
			t.Fatal(err)
		}
	}
	h := Handler(c)
	var texts []string
	for _, peer := range []string{"sue", "hr"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/explain?peer="+peer, nil))
		var body struct {
			Text string `json:"text"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Text == "" {
			t.Fatalf("/explain?peer=%s: %d %s (%v)", peer, rec.Code, rec.Body, err)
		}
		texts = append(texts, body.Text)
	}
	served := find(flush(), declog.KindExplain, declog.Served)
	if len(served) != len(texts) {
		t.Fatalf("%d explain records, want %d", len(served), len(texts))
	}
	for i, d := range served {
		if d.Digest != declog.Digest(texts[i]) {
			t.Errorf("record %d (%s): digest %s, served text digests to %s", i, d.Peer, d.Digest, declog.Digest(texts[i]))
		}
	}
}

func TestRecoveryOpensDecisionStream(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDurable("Hiring", workload.Hiring(), DurabilityConfig{Dir: dir, Sync: wal.SyncAlways,
		Guards: map[string]int{"sue": 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("hr", "clear", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	l, flush := newTestDeclog(t)
	c2, err := NewDurable("Hiring", workload.Hiring(), DurabilityConfig{
		Dir: dir, Sync: wal.SyncAlways, DecisionLog: l,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	recs := flush()
	rec := find(recs, declog.KindRecover, declog.Recovered)
	if len(rec) != 1 || rec[0].RunLen != 1 || rec[0].Workflow != "Hiring" {
		t.Fatalf("recover records=%+v", rec)
	}
	g := find(recs, declog.KindGuard, declog.Installed)
	if len(g) != 1 || g[0].Peer != "sue" || g[0].H != 3 || g[0].Reason != "recovered" {
		t.Fatalf("recovered guard records=%+v", g)
	}
}

// TestFreshGuardsLoggedInPeerOrder: a fresh durable run guarded for two
// peers persists both budgets in its log's header and opens its decision
// stream with the recovery record, then one guard record per peer in peer
// order, whatever the config map's iteration order.
func TestFreshGuardsLoggedInPeerOrder(t *testing.T) {
	guards := map[string]int{"sue": 2, "hr": 3}
	for i := 0; i < 8; i++ {
		dir := t.TempDir()
		l, flush := newTestDeclog(t)
		c, err := NewDurable("Hiring", workload.Hiring(), DurabilityConfig{
			Dir: dir, DecisionLog: l, Guards: guards,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		var got []string
		for _, d := range flush() {
			got = append(got, d.Kind+":"+d.Peer+":"+d.Reason)
		}
		want := "recover::,guard:hr:,guard:sue:"
		if strings.Join(got, ",") != want {
			t.Fatalf("decision stream %v, want %s", got, want)
		}
		rc, err := NewDurable("Hiring", workload.Hiring(), DurabilityConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if g := rc.Guards(); len(g) != 2 || g["sue"] != 2 || g["hr"] != 3 {
			t.Fatalf("recovered guards %v, want %v", g, guards)
		}
		rc.Close()
	}
}

func TestDecisionLogNeverBlocksSubmissions(t *testing.T) {
	// A sink that hangs forever must not stall the coordinator: records
	// accumulate in the ring (dropping the oldest), submissions proceed.
	blocked := make(chan struct{})
	sink := blockingSink{unblock: blocked}
	l, err := declog.New(declog.Config{Sink: sink, Capacity: 8, BatchSize: 1,
		FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Release the hung export, then stop the flusher: left running, its
	// 1 ms ticker would wake the scheduler through every later test.
	t.Cleanup(func() {
		close(blocked)
		l.Close(context.Background())
	})
	c := newCoordinator(t, "Hiring", workload.Hiring(), DurabilityConfig{DecisionLog: l})
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 100; i++ {
			if _, err := c.Submit("hr", "clear", nil); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("submissions blocked behind a hung decision-log sink")
	}
	if st := l.Status(); st.Dropped == 0 {
		t.Fatalf("drop-oldest must have engaged: %+v", st)
	}
}

type blockingSink struct{ unblock chan struct{} }

func (s blockingSink) Export(ctx context.Context, batch []declog.Decision) error {
	select {
	case <-s.unblock:
	case <-ctx.Done():
	}
	return ctx.Err()
}
func (s blockingSink) Describe() string { return "blocking" }
func (s blockingSink) Close() error     { return nil }

func TestStatuszReportsDecisionLogAndBuild(t *testing.T) {
	l, _ := newTestDeclog(t)
	c := newCoordinator(t, "Hiring", workload.Hiring(), DurabilityConfig{DecisionLog: l})
	c.Submit("hr", "clear", nil)

	rr := httptest.NewRecorder()
	StatuszHandler(c).ServeHTTP(rr, httptest.NewRequest("GET", "/statusz", nil))
	var st Statusz
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.DecisionLog == nil || st.DecisionLog.Sink != "test" || st.DecisionLog.Emitted == 0 {
		t.Fatalf("statusz decision_log=%+v", st.DecisionLog)
	}
	if st.Build.GoVersion == "" {
		t.Fatalf("statusz build=%+v", st.Build)
	}
}

// TestDecisionLogOverHTTPAuditsClean drives a coordinator over HTTP with
// its decision log posted through an HTTPSink to a collector that answers
// its first two uploads 503: after Close every emitted record has arrived
// exactly once, and the collected log audits clean.
func TestDecisionLogOverHTTPAuditsClean(t *testing.T) {
	var (
		mu        sync.Mutex
		collected bytes.Buffer
		uploads   atomic.Int64
	)
	collector := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if uploads.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		zr, err := gzip.NewReader(r.Body)
		if err != nil {
			t.Errorf("upload not gzipped: %v", err)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if _, err := io.Copy(&collected, zr); err != nil {
			t.Errorf("reading upload: %v", err)
		}
	}))
	defer collector.Close()
	sink := declog.NewHTTPSink(collector.URL, client.Options{
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		Rand: rand.New(rand.NewSource(1)),
	})
	l, err := declog.New(declog.Config{Sink: sink, BatchSize: 4, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	c := newCoordinator(t, "Hiring", workload.Hiring(), DurabilityConfig{DecisionLog: l,
		Guards: map[string]int{"sue": 3}})
	ts := httptest.NewServer(Handler(c))
	defer ts.Close()
	api := client.New(ts.URL, client.Options{})
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		res, err := api.Submit(ctx, "hr", "clear", nil)
		if err != nil {
			t.Fatal(err)
		}
		x := map[string]string{"x": strings.TrimSuffix(strings.TrimPrefix(res.Updates[0], "+Cleared("), ")")}
		if _, err := api.Submit(ctx, "ceo", "approve", x); err == nil {
			t.Fatal("approve before cfo_ok must be rejected")
		}
		for _, step := range []struct{ peer, rule string }{{"cfo", "cfo_ok"}, {"ceo", "approve"}, {"hr", "hire"}} {
			if _, err := api.Submit(ctx, step.peer, step.rule, x); err != nil {
				t.Fatalf("%s: %v", step.rule, err)
			}
		}
		for _, peer := range []string{"sue", "hr"} {
			if _, err := api.Explain(ctx, peer); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(ctx); err != nil {
		t.Fatal(err)
	}

	st := l.Status()
	if st.Dropped != 0 || st.ExportFailures != 0 {
		t.Fatalf("pipeline lost records: %+v", st)
	}
	if uploads.Load() < 4 {
		t.Fatalf("collector saw %d uploads, want the two refusals and their retries", uploads.Load())
	}
	mu.Lock()
	raw := bytes.Clone(collected.Bytes())
	mu.Unlock()
	var recs []declog.Decision
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var d declog.Decision
		if err := dec.Decode(&d); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, d)
	}
	seen := make(map[uint64]int)
	for _, d := range recs {
		seen[d.Seq]++
	}
	for seq := uint64(1); seq <= st.Emitted; seq++ {
		if seen[seq] != 1 {
			t.Fatalf("record %d arrived %d times", seq, seen[seq])
		}
	}
	if uint64(len(recs)) != st.Emitted {
		t.Fatalf("collected %d records, emitted %d", len(recs), st.Emitted)
	}
	rep, err := declog.Audit(workload.Hiring(), bytes.NewReader(raw), declog.AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.Accepted != 12 || rep.RecheckedRejections != 3 || rep.RecheckedExplains != 6 {
		t.Fatalf("audit of the collected log: %+v", rep)
	}
}
