package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"collabwf/internal/data"
	"collabwf/internal/declog"
	"collabwf/internal/design"
	"collabwf/internal/obs"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/transparency"
	"collabwf/internal/wal"
	"collabwf/internal/workload"
)

// decisionKey identifies one kind of decision across every channel.
type decisionKey struct{ kind, decision, reason string }

func (k decisionKey) String() string { return k.kind + "/" + k.decision + "/" + k.reason }

// TestDecisionChannelsAgree drives every submission outcome — accepted,
// replayed, and each rejection reason including all three WAL failures
// (append, group sync, crash-ambiguous) — plus certifications (certified,
// violation, cancelled) and explanations, then checks that the four
// channels report the same decisions: per (kind, decision, reason), the
// submission metric moved once per decision record, one log line exists
// per record, and each record's span carries its verdict, marked as an
// error exactly when the verdict is not a success.
func TestDecisionChannelsAgree(t *testing.T) {
	reg := obs.NewRegistry()
	dlog, flush := newTestDeclog(t)
	var logBuf bytes.Buffer
	logger, err := obs.NewLogger(&logBuf, "debug", obs.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(obs.TracerOptions{Capacity: 1024})
	// op opens a traced root span for one request; the returned func ends it.
	op := func(name string) (context.Context, func()) {
		ctx, sp := obs.StartSpan(obs.ContextWithTracer(context.Background(), tracer), "test."+name)
		return ctx, sp.End
	}

	// open builds a coordinator wired into the shared channels.
	open := func(name string, p *program.Program, cfg DurabilityConfig) *Coordinator {
		t.Helper()
		cfg.Metrics, cfg.Logger, cfg.DecisionLog = reg, logger, dlog
		return newCoordinator(t, name, p, cfg)
	}
	submitTo := func(c *Coordinator, peer, rule string, bind map[string]data.Value) (*SubmitResult, error) {
		ctx, end := op("submit")
		defer end()
		return c.SubmitIdemCtx(ctx, schema.Peer(peer), rule, bind, "")
	}
	mustReject := func(c *Coordinator, peer, rule string, bind map[string]data.Value) {
		t.Helper()
		if _, err := submitTo(c, peer, rule, bind); err == nil {
			t.Fatalf("%s by %s must be rejected", rule, peer)
		}
	}

	// The durable run: accepted, replayed, three request rejections, the
	// WAL failures, an explanation and the closed coordinator.
	fp := wal.NewFailpoints()
	c := open("Hiring", workload.Hiring(), DurabilityConfig{
		Dir: t.TempDir(), Sync: wal.SyncAlways, Failpoints: fp,
	})
	for i := 0; i < 2; i++ {
		ctx, end := op("submit")
		if _, err := c.SubmitIdemCtx(ctx, "hr", "clear", nil, "key-1"); err != nil {
			t.Fatal(err)
		}
		end()
	}
	mustReject(c, "hr", "nope", nil)                                     // unknown_rule
	mustReject(c, "cfo", "clear", nil)                                   // wrong_peer
	mustReject(c, "ceo", "approve", map[string]data.Value{"x": "ghost"}) // not_applicable
	fp.FailAppend(c.Len(), errors.New("disk full"))
	mustReject(c, "hr", "clear", nil)
	fp.Reset()
	fp.FailNextSync(errors.New("EIO"))
	mustReject(c, "hr", "clear", nil)
	fp.Reset()
	for _, peer := range []string{"sue", "nobody"} {
		ctx, end := op("explain")
		if write, err := c.ExplainCtx(ctx, schema.Peer(peer)); err == nil {
			write(bufio.NewWriter(io.Discard))
		}
		end()
	}
	// Crash-ambiguous: A's record sits in a slow fsync, B's queues behind
	// it, and the log crashes before B's batch starts. A's commit resolves
	// on its own; B's outcome is unknown.
	fp.SlowSync(time.Second)
	runLen := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.run.Len()
	}
	base := runLen()
	errA, errB := make(chan error, 1), make(chan error, 1)
	go func() { _, err := submitTo(c, "hr", "clear", nil); errA <- err }()
	waitUntil(t, "A's record in the committer", func() bool { return runLen() == base+1 && c.CommitQueueDepth() == 0 })
	go func() { _, err := submitTo(c, "hr", "clear", nil); errB <- err }()
	waitUntil(t, "B's record queued", func() bool { return c.CommitQueueDepth() == 1 })
	if _, _, err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := <-errA; err != nil {
		t.Fatalf("A's batch was fsynced before the crash, got %v", err)
	}
	if err := <-errB; !errors.Is(err, wal.ErrCrashed) || !errors.Is(err, ErrUnavailable) {
		t.Fatalf("B must be crash-ambiguous, got %v", err)
	}
	mustReject(c, "hr", "clear", nil) // closed

	// A guarded run: the over-budget hire of the staged session.
	staged, err := design.Staged(workload.Hiring(), "sue")
	if err != nil {
		t.Fatal(err)
	}
	g := open("Staged", staged, DurabilityConfig{RunID: "staged", Guards: map[string]int{"sue": 2}})
	var cand data.Value
	for _, s := range []struct {
		peer, rule string
		onX        bool // the rule is over the candidate x
	}{
		{"hr", "stage_refresh_hr", false}, {"hr", "clear", false}, {"cfo", "stage_refresh_cfo", false},
		{"cfo", "cfo_ok", true}, {"ceo", "approve", true},
	} {
		var bind map[string]data.Value
		if s.onX {
			bind = map[string]data.Value{"x": cand}
		}
		res, err := submitTo(g, s.peer, s.rule, bind)
		if err != nil {
			t.Fatalf("%s: %v", s.rule, err)
		}
		if s.rule == "clear" {
			cand = data.Value(strings.TrimSuffix(strings.TrimPrefix(res.Updates[0], "+Cleared("), ")"))
		}
	}
	mustReject(g, "hr", "hire", map[string]data.Value{"x": cand}) // guard

	// Certifications: Chain(1) is 1-bounded and transparent for p but not
	// 0-bounded; a cancelled context abandons the search.
	chain, _, err := workload.Chain(1)
	if err != nil {
		t.Fatal(err)
	}
	cc := open("Chain", chain, DurabilityConfig{RunID: "chain"})
	for _, h := range []int{1, 0} {
		ctx, end := op("certify")
		_ = cc.Certify(ctx, "p", h, transparency.Options{})
		end()
	}
	ctx, end := op("certify")
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	_ = cc.Certify(cctx, "p", 1, transparency.Options{})
	end()

	// Channel 1: the decision records.
	records := map[decisionKey]int{}
	recs := flush()
	for _, d := range recs {
		records[decisionKey{d.Kind, d.Decision, d.Reason}]++
	}
	for _, want := range []decisionKey{
		{declog.KindSubmit, declog.Accepted, ""},
		{declog.KindSubmit, declog.Replayed, ""},
		{declog.KindSubmit, declog.Rejected, "closed"},
		{declog.KindSubmit, declog.Rejected, "unknown_rule"},
		{declog.KindSubmit, declog.Rejected, "wrong_peer"},
		{declog.KindSubmit, declog.Rejected, "not_applicable"},
		{declog.KindSubmit, declog.Rejected, "guard"},
		{declog.KindCertify, declog.Certified, ""},
		{declog.KindCertify, declog.Violation, "bounded"},
		{declog.KindCertify, declog.Errored, "cancelled"},
		{declog.KindExplain, declog.Served, ""},
		{declog.KindExplain, declog.Errored, "unknown_peer"},
	} {
		if records[want] == 0 {
			t.Errorf("scenario produced no %v decision (have %v)", want, records)
		}
	}
	if n := records[decisionKey{declog.KindSubmit, declog.Rejected, "wal"}]; n != 3 {
		t.Errorf("wal rejections = %d, want 3 (append, sync, crash-ambiguous)", n)
	}

	// Channel 2: the submission metrics, summed over the runs.
	metrics := map[decisionKey]int{}
	for _, fam := range reg.Gather() {
		for _, s := range fam.Series {
			if s.Value == 0 {
				continue
			}
			switch fam.Name {
			case "wf_submissions_accepted_total":
				metrics[decisionKey{declog.KindSubmit, declog.Accepted, ""}] += int(s.Value)
			case "wf_idempotent_replays_total":
				metrics[decisionKey{declog.KindSubmit, declog.Replayed, ""}] += int(s.Value)
			case "wf_submissions_rejected_total":
				metrics[decisionKey{declog.KindSubmit, declog.Rejected, s.Labels[1].Value}] += int(s.Value)
			}
		}
	}

	// Channel 3: the coordinator's log lines.
	lines := map[decisionKey]int{}
	sc := bufio.NewScanner(&logBuf)
	for sc.Scan() {
		var line struct {
			Msg, Kind, Decision, Reason string
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("log line %q: %v", sc.Text(), err)
		}
		if line.Msg == "decision" {
			lines[decisionKey{line.Kind, line.Decision, line.Reason}]++
		}
	}

	keys := map[decisionKey]bool{}
	for _, m := range []map[decisionKey]int{records, metrics, lines} {
		for k := range m {
			keys[k] = true
		}
	}
	for k := range keys {
		if k.kind == declog.KindSubmit && metrics[k] != records[k] {
			t.Errorf("%v: metric moved %d times, %d decision records", k, metrics[k], records[k])
		}
		if lines[k] != records[k] {
			t.Errorf("%v: %d log lines, %d decision records", k, lines[k], records[k])
		}
	}

	// Channel 4: the span of each traced decision carries its verdict and
	// is an error exactly for rejected, violation and error verdicts.
	for _, d := range recs {
		if d.Kind == declog.KindGuard || d.Kind == declog.KindRecover {
			continue // no request, no span
		}
		if d.TraceID == "" {
			t.Errorf("%s/%s/%s record carries no trace id", d.Kind, d.Decision, d.Reason)
			continue
		}
		td := tracer.Trace(d.TraceID)
		if td == nil {
			t.Errorf("trace %s of %s/%s not retained", d.TraceID, d.Kind, d.Decision)
			continue
		}
		var sp *obs.SpanData
		for _, s := range td.Spans {
			if s.Attrs["decision"] != nil {
				sp = s
			}
		}
		failed := d.Decision == declog.Rejected || d.Decision == declog.Violation || d.Decision == declog.Errored
		switch {
		case sp == nil:
			t.Errorf("%s/%s: no span carries the decision", d.Kind, d.Decision)
		case fmt.Sprint(sp.Attrs["decision"]) != d.Decision || fmt.Sprint(sp.Attrs["reason"]) != fmt.Sprint(orNil(d.Reason)):
			t.Errorf("%s/%s/%s: span %s attrs %v", d.Kind, d.Decision, d.Reason, sp.Name, sp.Attrs)
		case (sp.Error != "") != failed:
			t.Errorf("%s/%s/%s: span %s error %q, want failed=%v", d.Kind, d.Decision, d.Reason, sp.Name, sp.Error, failed)
		}
	}
}

// orNil maps "" to nil, the value an unset span attribute reads as.
func orNil(s string) any {
	if s == "" {
		return nil
	}
	return s
}

// waitUntil polls cond until it holds, failing the test after 10s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
