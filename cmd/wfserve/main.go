// Command wfserve hosts a fleet of workflow runs behind the master-server
// architecture of the paper's conclusion: peers submit rule firings over a
// JSON HTTP API, a per-run coordinator serializes them into that run, and
// each peer can fetch its view, its visible transitions, and faithful
// explanations of what it observed. Optional guards enforce transparency
// and h-boundedness for selected peers by rejecting violating submissions.
//
// Every request is hash-routed to its run's shard — an independent
// coordinator with its own lock, observable-prefix snapshot, explainer
// caches and WAL directory — so one run's load (or fsync stall) never
// blocks another's. The lifecycle API creates, lists and archives runs at
// runtime; legacy single-run paths alias to the "default" run, so
// pre-fleet clients keep working unchanged.
//
// With -data-dir the fleet is durable: the default run lives at the
// directory root (a pre-fleet data dir recovers as-is), named runs under
// <dir>/runs/<id>/, and a restart recovers every non-archived run by
// replaying its WAL, the run's only record (a guarded run also keeps its
// guards in snapshot.json). Under -fsync always a submission is acknowledged
// only once its WAL record is fsynced, and concurrent submissions share one
// group fsync; -fsync interval acknowledges at write time and fsyncs a
// dirty WAL tail every 100ms; -fsync never leaves syncing to the OS.
// SIGINT/SIGTERM shut the server down gracefully: in-flight submissions
// drain, and every run's WAL is synced and closed.
//
// Usage:
//
//	wfserve -spec workflow.wf [-addr :8080] [-guard sue=3 -guard bob=2]
//	        [-data-dir ./data] [-fsync always|interval|never]
//	        [-wal-strict] [-idem-window 4096]
//	        [-max-inflight 256]
//	        [-shutdown-timeout 10s]
//	        [-declog decisions.jsonl|http://collector/v1|stdout]
//	        [-request-timeout 30s] [-debug-addr :6060] [-profile-rules]
//	        [-log-level info] [-log-format auto|text|json]
//	        [-trace-sample always|error|slow|off] [-trace-slow 100ms]
//	        [-trace-buffer 256]
//
// Endpoints: POST /runs, GET /runs, DELETE /runs/{id}, and under each
// /runs/{id}/ prefix (plus the legacy default-run alias at the root) the
// full single-run API: POST submit, GET view, /explain, /scenario,
// /transitions, /trace, /healthz, /readyz, /metrics, /statusz (see
// internal/server). /statusz reports what no other surface does — build,
// decision-log sink, snapshot sequence, readiness, WAL stall, guards — plus
// the fleet block: one row per live run and aggregate counts. With
// -debug-addr a second listener additionally serves /metrics,
// net/http/pprof, the trace flight recorder at /debug/traces and the ranked
// rule-cost listing at /debug/rules — keep it off the public interface.
// With -profile-rules the rule-engine profiler attributes evaluation cost
// per rule on the default run (wf_rule_* / wf_query_* metric families and
// /debug/rules rankings); off by default because attribution adds clock
// reads to the submit path.
//
// -request-timeout bounds the time to each response's first byte: a
// handler that has written nothing by then is answered 503, while a
// response that has started streams to completion. There is no write
// deadline for slow clients.
//
// With -declog every coordinator decision (submission verdict, idempotent
// replay, certification, explanation, guard install, recovery) is one
// record in the decision log, batched 128 at a time or every second, queued
// up to 4096 records (drop-oldest), the file sink rotating past 64 MiB. An
// http(s):// sink posts each batch as gzipped JSON Lines through
// internal/client, with up to 4 retries, before the batch is counted lost.
// The same decision drives its metric, span attributes and log line.
//
// Every layer is instrumented: request counts/latency per route, submission
// accept/reject counters labeled by run, WAL fsync latency,
// decider search effort, fleet gauges (wf_runs_active, wf_fleet_events), Go
// runtime gauges, and request-scoped traces (HTTP → coordinator → WAL span
// trees, retained per -trace-sample; every log line carries its trace_id).
// Logs are structured (log/slog): text on a terminal, JSON when piped,
// overridable with -log-format.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"collabwf/internal/client"
	"collabwf/internal/declog"
	"collabwf/internal/obs"
	"collabwf/internal/parse"
	"collabwf/internal/prof"
	"collabwf/internal/server"
	"collabwf/internal/wal"
)

type guardFlags []string

func (g *guardFlags) String() string     { return strings.Join(*g, ",") }
func (g *guardFlags) Set(s string) error { *g = append(*g, s); return nil }

func main() {
	specPath := flag.String("spec", "", "workflow specification file")
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data-dir", "", "durability directory (per-run WALs and guard files); empty = in-memory only")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always, interval or never")
	// Deprecated: ignored; the WAL is the run's only record.
	flag.Int("snapshot-every", 0, "deprecated and ignored: the WAL is the run's only record")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "drain deadline on SIGINT/SIGTERM")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "time to a response's first byte before a 503; a started response completes (0 = unbounded)")
	maxBody := flag.Int64("max-body", 1<<20, "maximum /submit body size in bytes")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrent /submit requests per run before shedding with 429 (0 = unbounded)")
	walStrict := flag.Bool("wal-strict", false, "refuse to start on a corrupt WAL record instead of truncating at the first bad record")
	idemWindow := flag.Int("idem-window", 0, "idempotency-key dedupe window in submissions per run (0 = 4096)")
	declogDest := flag.String("declog", "", "decision-log sink: a JSONL file path, an http(s):// collector URL, or 'stdout'; empty = disabled")
	debugAddr := flag.String("debug-addr", "", "debug listener (pprof + /metrics + /debug/traces); empty = disabled")
	traceSample := flag.String("trace-sample", "always", "trace sampling policy: always, error, slow or off")
	traceSlow := flag.Duration("trace-slow", 100*time.Millisecond, "root-span duration threshold for -trace-sample slow")
	traceBuffer := flag.Int("trace-buffer", 256, "completed traces retained by the flight recorder")
	logFlags := obs.RegisterLogFlags(flag.CommandLine, "info")
	profileRules := flag.Bool("profile-rules", false, "enable the rule-engine cost profiler on the default run (see /debug/rules)")
	var guards guardFlags
	flag.Var(&guards, "guard", "peer=h transparency guard installed on every fresh run (repeatable)")
	flag.Parse()

	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "wfserve: -spec is required")
		flag.Usage()
		os.Exit(2)
	}
	logger, err := logFlags.NewLogger(os.Stderr)
	if err != nil {
		fatal(err)
	}
	policy, err := obs.ParseSamplePolicy(*traceSample)
	if err != nil {
		fatal(err)
	}
	var tracer *obs.Tracer
	if policy != obs.SampleOff {
		tracer = obs.NewTracer(obs.TracerOptions{
			Policy:     policy,
			SlowerThan: *traceSlow,
			Capacity:   *traceBuffer,
		})
	}
	src, err := os.ReadFile(*specPath)
	if err != nil {
		fatal(err)
	}
	spec, err := parse.Parse(string(src))
	if err != nil {
		fatal(err)
	}

	guardMap := make(map[string]int)
	for _, g := range guards {
		peer, hs, ok := strings.Cut(g, "=")
		if !ok {
			fatal(fmt.Errorf("bad -guard %q, want peer=h", g))
		}
		h, err := strconv.Atoi(hs)
		if err != nil {
			fatal(fmt.Errorf("bad -guard budget %q: %v", hs, err))
		}
		guardMap[peer] = h
		fmt.Printf("guarding transparency and %d-boundedness for %s (fresh runs)\n", h, peer)
	}

	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	obs.RegisterBuildInfo(reg)

	// The decision log opens before the fleet so recovery itself is the
	// stream's first record for every run (see DurabilityConfig.DecisionLog).
	var declogger *declog.Logger
	if *declogDest != "" {
		sink, err := newDeclogSink(*declogDest, logger)
		if err != nil {
			fatal(err)
		}
		declogger, err = declog.New(declog.Config{Sink: sink, Registry: reg, Logger: logger})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("decision log streaming to %s\n", sink.Describe())
	}

	var syncPolicy wal.SyncPolicy
	if *dataDir != "" {
		syncPolicy, err = wal.ParsePolicy(*fsync)
		if err != nil {
			fatal(err)
		}
	}
	m, err := server.NewManager(server.ManagerConfig{
		Workflow: spec.Name,
		Prog:     spec.Program,
		DataDir:  *dataDir,
		Durability: server.DurabilityConfig{
			Sync:        syncPolicy,
			Strict:      *walStrict,
			IdemWindow:  *idemWindow,
			DecisionLog: declogger,
		},
		HTTP: server.HTTPOptions{
			RequestTimeout: *requestTimeout,
			MaxBodyBytes:   *maxBody,
			Logger:         logger,
			Tracer:         tracer,
			MaxInFlight:    *maxInFlight,
		},
		Registry: reg,
		Logger:   logger,
		Guards:   guardMap,
	})
	if err != nil {
		fatal(err)
	}
	runs := m.Runs()
	if *dataDir != "" {
		events := 0
		for _, r := range runs {
			events += r.Events
		}
		if events > 0 || len(runs) > 1 {
			fmt.Printf("recovered %d runs (%d events) from %s\n", len(runs), events, *dataDir)
		}
	}
	// The rule-engine profiler attributes evaluation cost per rule across
	// the default run's live run, reads, guard checks and decider searches.
	// Every count reaches it through the default run's own sink, so sibling
	// runs in the fleet never bleed into its tallies.
	var profiler *prof.Profiler
	if *profileRules {
		profiler = prof.New()
		m.Default().SetProfiler(profiler)
		profiler.Instrument(reg)
		fmt.Println("rule-engine profiler on for the default run (wf_rule_*, /debug/rules)")
	}

	srv := &http.Server{Addr: *addr, Handler: m.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugMux := obs.DebugMux(reg, tracer)
		// Ranked per-rule cost listing; serves {"enabled": false} when the
		// profiler is off so probes need not special-case the flag.
		debugMux.Handle("/debug/rules", prof.RulesHandler(profiler))
		debugSrv = &http.Server{Addr: *debugAddr, Handler: debugMux}
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("serving workflow %s on %s (%d runs)\n", spec.Name, *addr, len(runs))
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		// Listener failure before any signal.
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Println("wfserve: shutting down, draining in-flight requests")
	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "wfserve: shutdown:", err)
	}
	if debugSrv != nil {
		_ = debugSrv.Shutdown(drainCtx)
	}
	// Sync and close every run's WAL (no-op for in-memory fleets).
	if err := m.Close(); err != nil {
		fatal(fmt.Errorf("closing run fleet: %w", err))
	}
	// The fleet is closed, so no new decisions can be emitted: drain
	// whatever the queue still holds and close the sink.
	if declogger != nil {
		if err := declogger.Close(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "wfserve: closing decision log:", err)
		}
	}
	fmt.Println("wfserve: state persisted, bye")
}

// newDeclogSink builds the -declog sink: an http(s):// URL uploads gzipped
// batches with retries, "stdout" (or "-") writes JSONL to standard output,
// anything else is a file path rotated past 64 MiB.
func newDeclogSink(dest string, logger *slog.Logger) (declog.Sink, error) {
	switch {
	case strings.HasPrefix(dest, "http://") || strings.HasPrefix(dest, "https://"):
		return declog.NewHTTPSink(dest, client.Options{Logger: logger}), nil
	case dest == "stdout" || dest == "-":
		return declog.NewWriterSink(os.Stdout, "stdout"), nil
	default:
		return declog.NewFileSink(dest, declog.FileOptions{MaxBytes: 64 << 20})
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wfserve:", err)
	os.Exit(1)
}
