package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"collabwf/internal/obs"
	"collabwf/internal/parse"
	"collabwf/internal/program"
	"collabwf/internal/trace"
)

const (
	// setupSpawns and recoverySpawns are the server starts timed per run;
	// their medians are setup_s and recovery_s.
	setupSpawns    = 9
	recoverySpawns = 3
	// burstAcks is how many acknowledged submissions the crash burst
	// collects before the server is killed under it.
	burstAcks = 40
	// traceBuffer is the flight-recorder size of a traced server: above
	// the requests of any traced round, so no tree is evicted.
	traceBuffer = 65536
)

// runner measures one workload in one invocation.
type runner struct {
	w        *workload
	seed     int64
	traceDir string // where a traced run's Chrome trace goes ("" = none)
	work     string // scratch directory of this invocation
	spec     string // spec file
	name     string // workflow name
	prog     *program.Program
	sz       sizes
	spawn    spawner

	traced bool   // the current pass runs traced servers
	init   string // initial data dir, copied for every fresh server
	// prefixTrace is the generated crowd prefix as /trace renders it, and
	// expect the reads of crowd-read checked against it.
	prefixTrace []byte
	expect      *expectation

	live   map[*proc]bool
	spawns int
	errs   []string
}

// newRunner prepares w with the benchmark's sizes; the caller sets spawn.
func newRunner(w *workload, root, work string, seed int64) (*runner, error) {
	spec := filepath.Join(root, "examples", "specs", w.spec)
	src, err := os.ReadFile(spec)
	if err != nil {
		return nil, err
	}
	s, err := parse.Parse(string(src))
	if err != nil {
		return nil, err
	}
	return &runner{w: w, seed: seed, work: work, spec: spec, name: s.Name, prog: s.Program,
		sz: benchSizes, live: map[*proc]bool{}}, nil
}

// check records every non-nil error as an output check failure.
func (r *runner) check(errs ...error) {
	for _, err := range errs {
		if err != nil {
			r.errs = append(r.errs, r.w.name+": "+err.Error())
		}
	}
}

// start spawns a server on dataDir with its own decision-log directory.
func (r *runner) start(dataDir string) (*proc, error) {
	r.spawns++
	declog := filepath.Join(r.work, "declog-"+strconv.Itoa(r.spawns))
	p, err := r.spawn(dataDir, declog, r.traced)
	if err != nil {
		return nil, err
	}
	r.live[p] = true
	return p, nil
}

// startFresh spawns a server on a fresh copy of the initial data dir. It
// first flushes every dirty page (the copy, earlier rounds' files) so that
// their writeback does not overlap what is timed next.
func (r *runner) startFresh() (*proc, error) {
	dir := filepath.Join(r.work, "data-"+strconv.Itoa(r.spawns+1))
	if err := copyDir(r.init, dir); err != nil {
		return nil, err
	}
	syscall.Sync()
	return r.start(dir)
}

// replace stops p, deletes its data dir and starts a fresh server.
func (r *runner) replace(p *proc) (*proc, error) {
	r.stop(p)
	if err := os.RemoveAll(p.dir); err != nil {
		return nil, err
	}
	return r.startFresh()
}

func (r *runner) stop(p *proc) {
	p.kill()
	delete(r.live, p)
}

// stopAll kills every server still running.
func (r *runner) stopAll() {
	for p := range r.live {
		r.stop(p)
	}
}

// passStats aggregates the rounds of one pass.
type passStats struct {
	rounds    int
	elapsed   time.Duration
	calls     []call
	failed    int
	firstErr  error     // of the first failed call
	rates     []float64 // completed operations per second, per round
	rss       []float64 // server peak resident set (MiB), per round
	archived  int
	rssGrowMB float64
	delta     prom // counter growth summed over rounds
	last      prom // the last round's closing scrape
	declogRec float64
	declogB   float64
	spans     spanStats
	trees     map[string]*obs.TraceData
}

func (st *passStats) completed() int { return len(st.calls) - st.failed }

// opsPerSec is the pass's completed operations per second of round time.
func (st *passStats) opsPerSec() float64 { return float64(st.completed()) / st.elapsed.Seconds() }

// pass runs rounds until budget is spent and returns the server left
// running.
func (r *runner) pass(ctx context.Context, p *proc, budget time.Duration) (*proc, *passStats, error) {
	st := &passStats{delta: prom{}, trees: map[string]*obs.TraceData{}}
	for st.rounds == 0 || st.elapsed < budget {
		if st.rounds > 0 && r.w.fresh {
			var err error
			if p, err = r.replace(p); err != nil {
				return nil, nil, err
			}
		}
		before, err := scrape(ctx, p.base)
		if err != nil {
			return nil, nil, err
		}
		ro, err := r.w.round(ctx, r, p)
		if err != nil {
			return nil, nil, err
		}
		after, err := scrape(ctx, p.base)
		if err != nil {
			return nil, nil, err
		}
		rss, err := p.peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		failed := 0
		for _, c := range ro.calls {
			if c.err != nil {
				if failed++; st.firstErr == nil {
					st.firstErr = c.err
				}
			}
		}
		st.rounds++
		st.elapsed += ro.dur
		st.calls = append(st.calls, ro.calls...)
		st.failed += failed
		st.rates = append(st.rates, float64(len(ro.calls)-failed)/ro.dur.Seconds())
		st.rss = append(st.rss, rss)
		st.archived += ro.archived
		st.rssGrowMB += ro.rssGrowMB
		st.delta.add(after.sub(before))
		st.last = after
		if p.debug != "" {
			trees, missing, err := fetchTrees(ctx, p.debug, ro.calls)
			if err != nil {
				return nil, nil, err
			}
			st.spans.add(ro.calls, trees)
			st.spans.dropped += missing
			for id, td := range trees {
				st.trees[id] = td
			}
			recs, b := declogSize(p.declog)
			st.declogRec += recs
			st.declogB += b
		}
	}
	return p, st, nil
}

// declogSize counts the records and bytes of a decision-log directory.
func declogSize(dir string) (records, size float64) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			records += float64(bytes.Count(b, []byte{'\n'}))
			size += float64(len(b))
		}
	}
	return records, size
}

// outcome is everything one invocation measured.
type outcome struct {
	setup, recovery []float64
	untraced        *passStats
	traced          *passStats // nil unless the run is traced
	replay          *replayStats
	recovered       prom     // the recovered server's scrape
	phases          []string // wall time per phase, for the log
}

// run measures the workload: set-up, the measured pass(es), the output
// checks, and the crash/recovery check.
func (r *runner) run(ctx context.Context, seconds time.Duration, traced bool) (*outcome, error) {
	defer r.stopAll()
	out := &outcome{}
	mark := time.Now()
	phase := func(name string) {
		out.phases = append(out.phases, fmt.Sprintf("%s %.1fs", name, time.Since(mark).Seconds()))
		mark = time.Now()
	}
	r.init = filepath.Join(r.work, "init")
	if err := os.MkdirAll(r.init, 0o755); err != nil {
		return nil, err
	}
	if r.w.prefix != nil {
		var err error
		if r.prefixTrace, err = generatePrefix(r.name, r.prog, r.seed, r.w.prefix(r.sz), r.init); err != nil {
			return nil, err
		}
		if r.w.name == "crowd-read" {
			tr, err := trace.Read(bytes.NewReader(r.prefixTrace))
			if err != nil {
				return nil, err
			}
			if r.expect, err = newExpectation(r.prog, tr); err != nil {
				return nil, err
			}
		}
	}

	phase("prepare")
	p, err := r.startFresh()
	if err != nil {
		return nil, err
	}
	out.setup = append(out.setup, p.ready.Seconds())
	for len(out.setup) < setupSpawns {
		if p, err = r.replace(p); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, p.ready.Seconds())
	}
	if r.prefixTrace != nil {
		got, err := fetchTraceBytes(ctx, p.base, "")
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, r.prefixTrace) {
			r.check(fmt.Errorf("the seeded prefix recovered with a different trace (%d bytes, generated %d)", len(got), len(r.prefixTrace)))
		}
	}

	phase("setup")
	budget := seconds
	if traced {
		budget /= 2
	}
	if p, out.untraced, err = r.pass(ctx, p, budget); err != nil {
		return nil, err
	}
	if traced {
		r.traced = true
		if p, err = r.replace(p); err != nil {
			return nil, err
		}
		if p, out.traced, err = r.pass(ctx, p, budget); err != nil {
			return nil, err
		}
	}

	phase("measure")
	tr, err := r.finalCheck(ctx, p)
	if err != nil {
		return nil, err
	}
	phase("check")
	if traced {
		if out.replay, err = replayLayers(r.prog, tr); err != nil {
			return nil, err
		}
		if err := lifecycleLayers(r.name, r.prog, r.w.episode, filepath.Join(r.work, "scratch-fleet"), out.replay); err != nil {
			return nil, err
		}
		if r.traceDir != "" {
			path := filepath.Join(r.traceDir, fmt.Sprintf("%s-seed%d.json", r.w.name, r.seed))
			if err := writeChromeTrace(path, out.traced.calls, out.traced.trees); err != nil {
				return nil, err
			}
		}
	}
	phase("layers")
	if p, out.recovery, err = r.crash(ctx, p); err != nil {
		return nil, err
	}
	if out.recovered, err = scrape(ctx, p.base); err != nil {
		return nil, err
	}
	phase("crash")
	return out, nil
}

// finalCheck compares the served explanations of the final state with a
// from-scratch explainer and returns the trace it checked. hiring-fleet
// checks one extra run before archiving it; crowd-read, whose every read
// was already checked, returns its prefix.
func (r *runner) finalCheck(ctx context.Context, p *proc) (*trace.Trace, error) {
	if r.expect != nil {
		return trace.Read(bytes.NewReader(r.prefixTrace))
	}
	cn := newConn(p.base, clientRand(r.seed, 7), false)
	if r.w.name != "hiring-fleet" {
		tr, err := checkExplain(ctx, cn, r.prog, p.base, "")
		r.check(err)
		return tr, nil
	}
	g := &ids{prefix: "chk.", rnd: clientRand(r.seed, 7)}
	ops := fleetEpisode(g)
	run := ops[0].Run
	for _, o := range ops[:len(ops)-1] {
		if _, err := cn.do(ctx, o, 0); err != nil {
			return nil, err
		}
	}
	tr, err := checkExplain(ctx, cn, r.prog, p.base, run)
	r.check(err)
	if _, err := cn.do(ctx, ops[len(ops)-1], 0); err != nil {
		return nil, err
	}
	return tr, nil
}

// crash kills the server under an untimed burst of submissions, restarts
// it on the same data dir recoverySpawns times (each restart time is a
// recovery_s sample), and checks that every acknowledged submission
// survived.
func (r *runner) crash(ctx context.Context, p *proc) (*proc, []float64, error) {
	run, it := r.w.burstRun, stream(clientRand(r.seed, 9), "k.", -1, r.w.episode)
	cn := newConn(p.base, clientRand(r.seed, 8), false)
	if run != "" {
		if _, err := cn.do(ctx, op{Kind: opCreate, Run: run}, 0); err != nil {
			return nil, nil, err
		}
	}
	acked := map[int]op{}
	acks, dups := 0, 0
	enough := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for o, ok := it.next(); ok; o, ok = it.next() {
			o.Run = run
			res, err := cn.do(ctx, o, 0)
			if err != nil {
				return
			}
			if _, dup := acked[res.index]; dup {
				dups++
			}
			acked[res.index] = o
			if acks++; acks == burstAcks {
				close(enough)
			}
		}
	}()
	select {
	case <-enough:
	case <-done:
	}
	dir := p.dir
	r.stop(p)
	<-done
	if dups > 0 {
		r.check(fmt.Errorf("crash burst: %d indices acknowledged twice", dups))
	}
	if acks < burstAcks {
		return nil, nil, fmt.Errorf("crash burst: only %d submissions acknowledged before failing", acks)
	}
	var samples []float64
	for i := 0; i < recoverySpawns; i++ {
		if i > 0 {
			r.stop(p)
		}
		var err error
		if p, err = r.start(dir); err != nil {
			return nil, nil, err
		}
		samples = append(samples, p.ready.Seconds())
		if i == 0 {
			tr, err := fetchTrace(ctx, p.base, run)
			if err != nil {
				return nil, nil, err
			}
			r.check(checkDurable(tr, acked))
		}
	}
	return p, samples, nil
}
