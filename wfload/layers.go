package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"collabwf/internal/core"
	"collabwf/internal/obs"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/server"
	"collabwf/internal/trace"
	"collabwf/internal/wal"
)

// prom is one /metrics scrape: every sample summed over its label sets,
// keyed by sample name (histograms contribute _sum and _count).
type prom map[string]float64

func scrape(ctx context.Context, base string) (prom, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (prom, error) {
	out := prom{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name := line[:strings.IndexAny(line+" ", "{ ")]
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// sub returns a − b per sample (counter growth over a round).
func (a prom) sub(b prom) prom {
	out := prom{}
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

func (a prom) add(b prom) {
	for k, v := range b {
		a[k] += v
	}
}

// ratio is a/b, or 0 when nothing happened.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxTrees bounds the span trees pulled per round (each is one request to
// the debug listener): those of the round's most recent calls.
const maxTrees = 500

// tracedKinds are the calls whose server route carries a span (run
// creation and archiving go through the fleet router, which has none).
var tracedKinds = map[string]bool{opSubmit: true, opView: true, opTransitions: true, opExplain: true}

// fetchTrees pulls the server span trees of the most recent traced calls.
// A call whose tree is missing counts as dropped.
func fetchTrees(ctx context.Context, debug string, calls []call) (map[string]*obs.TraceData, int, error) {
	var ids []string
	for i := len(calls) - 1; i >= 0 && len(ids) < maxTrees; i-- {
		if tracedKinds[calls[i].kind] && calls[i].traceID != "" {
			ids = append(ids, calls[i].traceID)
		}
	}
	trees := make(map[string]*obs.TraceData, len(ids))
	missing := 0
	hc := &http.Client{Timeout: 10 * time.Second}
	for _, id := range ids {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, debug+"/debug/traces?id="+id, nil)
		if err != nil {
			return nil, 0, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, 0, fmt.Errorf("fetching span tree: %w", err)
		}
		var td obs.TraceData
		switch resp.StatusCode {
		case http.StatusOK:
			err = json.NewDecoder(resp.Body).Decode(&td)
		case http.StatusNotFound:
			missing++
		default:
			err = fmt.Errorf("fetching span tree: %s", resp.Status)
		}
		resp.Body.Close()
		if err != nil {
			return nil, 0, err
		}
		if resp.StatusCode == http.StatusOK {
			trees[id] = &td
		}
	}
	return trees, missing, nil
}

// selfTime is a span's duration minus the part of its interval that its
// direct children cover.
func selfTime(sp *obs.SpanData, children []*obs.SpanData) time.Duration {
	start := sp.Start
	end := start.Add(time.Duration(sp.DurationNS))
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.Start.Add(time.Duration(c.DurationNS))
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	covered := time.Duration(0)
	var cur iv
	for k, x := range ivs {
		switch {
		case k == 0:
			cur = x
		case !x.a.After(cur.b):
			if x.b.After(cur.b) {
				cur.b = x.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = x
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return time.Duration(sp.DurationNS) - covered
}

// spanStats are the per-layer samples read from the server span trees.
type spanStats struct {
	transportMS, httpSubmitMS, httpReadMS []float64
	submitMS, commitWaitMS, submitSelfMS  []float64
	walBytes                              []float64
	dropped                               int
}

func (s *spanStats) add(calls []call, trees map[string]*obs.TraceData) {
	for _, c := range calls {
		td := trees[c.traceID]
		if td == nil || len(td.Spans) == 0 {
			continue
		}
		s.dropped += td.DroppedSpans
		route := td.Spans[0]
		ms := float64(route.DurationNS) / 1e6
		s.transportMS = append(s.transportMS, float64(c.dur.Nanoseconds()-route.DurationNS)/1e6)
		switch c.kind {
		case opSubmit:
			s.httpSubmitMS = append(s.httpSubmitMS, ms)
		case opView, opTransitions:
			s.httpReadMS = append(s.httpReadMS, ms)
		}
		children := map[string][]*obs.SpanData{}
		for _, sp := range td.Spans {
			children[sp.ParentID] = append(children[sp.ParentID], sp)
		}
		for _, sp := range td.Spans {
			d := float64(sp.DurationNS) / 1e6
			switch sp.Name {
			case "coordinator.submit":
				s.submitMS = append(s.submitMS, d)
				s.submitSelfMS = append(s.submitSelfMS, float64(selfTime(sp, children[sp.SpanID]).Nanoseconds())/1e6)
			case "coordinator.commit_wait":
				s.commitWaitMS = append(s.commitWaitMS, d)
			case "wal.append":
				if b, ok := sp.Attrs["bytes"].(float64); ok {
					s.walBytes = append(s.walBytes, b)
				}
			}
		}
	}
}

// replayStats time the layers that have no server spans, by replaying a
// served trace in process: every Run.Append, then per peer the explainer's
// SyncTo and Freeze, and at the final prefix the report, per-event
// explanations and view rendering.
type replayStats struct {
	appendUS, syncUS, freezeUS []float64
	reportMS, explainUS        []float64
	viewMS, viewKB             []float64
	createMS, archiveMS        []float64
}

func replayLayers(prog *program.Program, tr *trace.Trace) (*replayStats, error) {
	st := &replayStats{}
	run := program.NewRun(prog)
	peers := prog.Peers()
	exps := make([]*core.Explainer, len(peers))
	for k, p := range peers {
		exps[k] = core.NewExplainerAt(run, p, 0)
	}
	for i, rec := range tr.Events {
		e, err := rec.Decode(prog)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if err := run.Append(e); err != nil {
			return nil, fmt.Errorf("replaying event %d: %w", i, err)
		}
		st.appendUS = append(st.appendUS, us(time.Since(t)))
		sync := 0.0
		for _, ex := range exps {
			t = time.Now()
			ex.SyncTo(i + 1)
			sync += us(time.Since(t))
			t = time.Now()
			ex.Freeze()
			st.freezeUS = append(st.freezeUS, us(time.Since(t)))
		}
		st.syncUS = append(st.syncUS, sync)
	}
	for k, p := range peers {
		fz := exps[k].Freeze()
		vis := run.VisibleEvents(p)
		t := time.Now()
		fz.ReportOver(run, vis)
		st.reportMS = append(st.reportMS, ms(time.Since(t)))
		for _, i := range vis {
			t = time.Now()
			fz.ExplainEvent(i)
			st.explainUS = append(st.explainUS, us(time.Since(t)))
		}
		t = time.Now()
		v := schema.ViewOf(run.InstanceAt(run.Len()-1), prog.Schema, p).String()
		st.viewMS = append(st.viewMS, ms(time.Since(t)))
		st.viewKB = append(st.viewKB, float64(len(v))/1024)
	}
	return st, nil
}

// scratchFleetRuns is how many runs the in-process lifecycle timing
// creates and archives.
const scratchFleetRuns = 100

// lifecycleLayers times Manager.CreateRun and ArchiveRun on an in-process
// durable fleet configured like the served one; each run gets one episode
// of the workload between the two.
func lifecycleLayers(name string, prog *program.Program, episode func(*ids) []op, dir string, st *replayStats) error {
	reg := obs.NewRegistry()
	m, err := server.NewManager(server.ManagerConfig{
		Workflow:   name,
		Prog:       prog,
		DataDir:    dir,
		Durability: server.DurabilityConfig{Sync: wal.SyncAlways, SnapshotEvery: 256, Metrics: reg},
		Registry:   reg,
	})
	if err != nil {
		return err
	}
	defer m.Close()
	g := &ids{prefix: "s.", rnd: clientRand(0, 0)}
	for i := 0; i < scratchFleetRuns; i++ {
		id := fmt.Sprintf("s%d", i)
		t := time.Now()
		if err := m.CreateRun(id); err != nil {
			return err
		}
		st.createMS = append(st.createMS, ms(time.Since(t)))
		c, _ := m.Run(id)
		for _, o := range episode(g) {
			if _, err := c.Submit(schema.Peer(o.Peer), o.Rule, o.values()); err != nil {
				return err
			}
		}
		t = time.Now()
		if err := m.ArchiveRun(id); err != nil {
			return err
		}
		st.archiveMS = append(st.archiveMS, ms(time.Since(t)))
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// writeChromeTrace writes the client spans and the server trees of a
// traced pass as one Chrome trace-event file.
func writeChromeTrace(path string, calls []call, trees map[string]*obs.TraceData) error {
	var tds []*obs.TraceData
	for _, c := range calls {
		td := trees[c.traceID]
		if td == nil || len(td.Spans) == 0 {
			continue
		}
		root := &obs.SpanData{TraceID: c.traceID, SpanID: td.Spans[0].ParentID, Name: "client." + c.kind,
			Start: c.start, DurationNS: c.dur.Nanoseconds()}
		tds = append(tds, &obs.TraceData{TraceID: c.traceID, Root: root.Name, Start: c.start,
			DurationNS: root.DurationNS, Spans: append([]*obs.SpanData{root}, td.Spans...)})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, tds); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
