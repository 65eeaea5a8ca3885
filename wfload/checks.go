package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"reflect"

	"collabwf/internal/core"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/server"
	"collabwf/internal/trace"
	"collabwf/internal/wal"
)

// generatePrefix writes a crowdsourcing run of the given number of
// episodes into dir with an in-process durable coordinator, and returns
// the run's trace as the server's /trace would render it. The generator
// is offline set-up, so it skips fsync; Close leaves a full snapshot.
func generatePrefix(spec string, prog *program.Program, seed int64, episodes int, dir string) ([]byte, error) {
	c, err := server.NewDurable(spec, prog, server.DurabilityConfig{Dir: dir, Sync: wal.SyncNever, SnapshotEvery: 256})
	if err != nil {
		return nil, err
	}
	it := stream(clientRand(seed, -1), "p.", episodes, crowdEpisode)
	for o, ok := it.next(); ok; o, ok = it.next() {
		if _, err := c.Submit(schema.Peer(o.Peer), o.Rule, o.values()); err != nil {
			c.Close()
			return nil, fmt.Errorf("generating prefix: %w", err)
		}
	}
	var buf bytes.Buffer
	if err := c.Trace().Write(&buf); err != nil {
		c.Close()
		return nil, err
	}
	return buf.Bytes(), c.Close()
}

// expectation is what every read of a static run must return, computed
// from scratch over the replayed trace.
type expectation struct {
	len     int
	view    map[string]string
	explain map[string]string
	vis     map[string][]int
}

func newExpectation(prog *program.Program, tr *trace.Trace) (*expectation, error) {
	run, err := tr.Replay(prog)
	if err != nil {
		return nil, err
	}
	x := &expectation{len: run.Len(), view: map[string]string{}, explain: map[string]string{}, vis: map[string][]int{}}
	for _, p := range prog.Peers() {
		x.view[string(p)] = schema.ViewOf(run.InstanceAt(run.Len()-1), prog.Schema, p).String()
		x.explain[string(p)] = fromScratchReport(run, p)
		x.vis[string(p)] = run.VisibleEvents(p)
	}
	return x, nil
}

// fromScratchReport is the peer's explanation report built by a fresh
// explainer over the whole run, the reference for the served /explain.
func fromScratchReport(run *program.Run, p schema.Peer) string {
	ex := core.NewExplainer(run, p)
	ex.Sync()
	return ex.Report().String()
}

// verify checks one read of the static run against the expectation.
func (x *expectation) verify(o op, from int, res result) error {
	switch o.Kind {
	case opView:
		if res.text != x.view[o.Peer] {
			return fmt.Errorf("view of %s differs from the replayed run", o.Peer)
		}
	case opExplain:
		if res.text != x.explain[o.Peer] {
			return fmt.Errorf("explain of %s differs from a from-scratch explainer", o.Peer)
		}
	case opTransitions:
		if res.len != x.len {
			return fmt.Errorf("transitions: released length %d, want %d", res.len, x.len)
		}
		var want, got []int
		for _, i := range x.vis[o.Peer] {
			if i >= from {
				want = append(want, i)
			}
		}
		for _, t := range res.trans {
			got = append(got, t.Index)
		}
		if !reflect.DeepEqual(want, got) {
			return fmt.Errorf("transitions of %s from %d: got %v, want %v", o.Peer, from, got, want)
		}
	}
	return nil
}

// runPath is the URL prefix of a run ("" = the default run).
func runPath(base, run string) string {
	if run == "" {
		return base
	}
	return base + "/runs/" + run
}

// fetchTraceBytes returns a run's /trace body.
func fetchTraceBytes(ctx context.Context, base, run string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, runPath(base, run)+"/trace", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET trace: %s", resp.Status)
	}
	return buf.Bytes(), nil
}

func fetchTrace(ctx context.Context, base, run string) (*trace.Trace, error) {
	b, err := fetchTraceBytes(ctx, base, run)
	if err != nil {
		return nil, err
	}
	return trace.Read(bytes.NewReader(b))
}

// checkExplain compares every peer's served /explain with a from-scratch
// explainer over the replayed /trace, and returns the replayed run.
func checkExplain(ctx context.Context, cn *conn, prog *program.Program, base, run string) (*trace.Trace, error) {
	tr, err := fetchTrace(ctx, base, run)
	if err != nil {
		return nil, err
	}
	replayed, err := tr.Replay(prog)
	if err != nil {
		return nil, fmt.Errorf("replaying served trace: %w", err)
	}
	for _, p := range prog.Peers() {
		res, err := cn.do(ctx, op{Kind: opExplain, Run: run, Peer: string(p)}, 0)
		if err != nil {
			return nil, err
		}
		if want := fromScratchReport(replayed, p); res.text != want {
			return nil, fmt.Errorf("served explanation for %s (%d bytes) differs from a from-scratch explainer (%d bytes) over %d events",
				p, len(res.text), len(want), replayed.Len())
		}
	}
	return tr, nil
}

// checkDurable verifies that every acknowledged submission is in the
// recovered trace, at its acknowledged index, with its bindings.
func checkDurable(tr *trace.Trace, acked map[int]op) error {
	for idx, o := range acked {
		if idx >= len(tr.Events) {
			return fmt.Errorf("acked event %d lost: recovered run has %d events", idx, len(tr.Events))
		}
		ev := tr.Events[idx]
		if ev.Rule != o.Rule {
			return fmt.Errorf("recovered event %d is %s, acked %s", idx, ev.Rule, o.Rule)
		}
		for k, v := range o.Bindings {
			if ev.Valuation[k] != v {
				return fmt.Errorf("recovered event %d binds %s=%s, acked %s", idx, k, ev.Valuation[k], v)
			}
		}
	}
	return nil
}
