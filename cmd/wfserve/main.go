// Command wfserve hosts a fleet of workflow runs behind the master-server
// architecture of the paper's conclusion: peers submit rule firings over a
// JSON HTTP API, a per-run coordinator serializes them into that run, and
// each peer can fetch its view, its visible transitions, and faithful
// explanations of what it observed. Optional guards enforce transparency
// and h-boundedness for selected peers by rejecting violating submissions:
// -guard installs them on every run that starts with no event and no
// guard (a named run at creation, a data dir on its first boot), and a
// recovered run keeps the guards it was started with.
//
// Every request is routed by its run id to the run's shard — an
// independent coordinator with its own lock, observable-prefix snapshot,
// explainer caches and WAL directory — so one run's load (or fsync stall)
// never blocks another's, and neither does another run's creation,
// recovery or archiving. The lifecycle API creates, lists and archives
// runs at runtime; a durable fleet never reuses an archived run's id
// (POST /runs answers 409). Legacy single-run paths alias to the "default"
// run, so pre-fleet clients keep working unchanged.
//
// With -data-dir the fleet is durable: the default run lives at the
// directory root (a pre-fleet data dir recovers as-is), named runs under
// <dir>/runs/<id>/, and a restart recovers every non-archived run by
// replaying its WAL, the run's only record, whose header holds the run's
// guards. A data dir written by an earlier version is refused until
// `wfrun -spec SPEC -upgrade DIR` rewrites it. Under -fsync always a
// submission is acknowledged only once its WAL record is fsynced, and
// concurrent submissions share one group fsync; -fsync never acknowledges
// at write time and leaves syncing to the OS.
// SIGINT/SIGTERM shut the server down gracefully: in-flight submissions
// drain, and every run's WAL is synced and closed; a signal that arrives
// during recovery takes effect once recovery ends.
//
// Startup runs in a fixed order: bind, lock, recover, serve. -addr and
// -debug-addr are bound first, before the decision log opens or the data
// dir is touched, so a taken address fails at once and leaves every file
// as it was. Each run's WAL is then locked, so a second server on a live
// data dir fails whatever its port, and recovered; only then does the
// server serve. A client that connects during recovery is not refused: its
// connection waits in the listen backlog and is answered as soon as the
// fleet is ready. The "serving" line is printed then, with the bound
// address.
//
// Usage:
//
//	wfserve -spec workflow.wf [-addr :8080] [-guard sue=3 -guard bob=2]
//	        [-data-dir ./data] [-fsync always|never]
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
// reads to the submit path. It is attached when the run is built, so a
// recovered run's reads are counted from the first request.
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
	"io"
	"log/slog"
	"net"
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

// errUsage marks a command line wfserve cannot run with; main exits 2.
var errUsage = errors.New("usage")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// The first signal starts a graceful shutdown; a second one kills.
	context.AfterFunc(ctx, stop)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil)
	stop()
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "wfserve:", err)
		os.Exit(1)
	}
}

// run is wfserve on the command line args, until ctx is done: it binds
// the listeners, recovers the fleet, serves it, and on ctx's end drains
// and closes everything. bound, when not nil, is called with the API
// listener's address once the listeners are bound, before the decision
// log opens and the data dir is touched.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, bound func(net.Addr)) error {
	fs := flag.NewFlagSet("wfserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "workflow specification file")
	addr := fs.String("addr", ":8080", "listen address")
	dataDir := fs.String("data-dir", "", "durability directory (per-run WALs); empty = in-memory only")
	fsync := fs.String("fsync", "always", "WAL fsync policy: always or never")
	// Deprecated: ignored; the WAL is the run's only record.
	fs.Int("snapshot-every", 0, "deprecated and ignored: the WAL is the run's only record")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "drain deadline on SIGINT/SIGTERM")
	requestTimeout := fs.Duration("request-timeout", 30*time.Second, "time to a response's first byte before a 503; a started response completes (0 = unbounded)")
	maxBody := fs.Int64("max-body", 1<<20, "maximum /submit body size in bytes")
	maxInFlight := fs.Int("max-inflight", 0, "max concurrent /submit requests per run before shedding with 429 (0 = unbounded)")
	walStrict := fs.Bool("wal-strict", false, "refuse to start on a corrupt WAL record instead of truncating at the first bad record")
	idemWindow := fs.Int("idem-window", 0, "idempotency-key dedupe window in submissions per run (0 = 4096)")
	declogDest := fs.String("declog", "", "decision-log sink: a JSONL file path, an http(s):// collector URL, or 'stdout'; empty = disabled")
	debugAddr := fs.String("debug-addr", "", "debug listener (pprof + /metrics + /debug/traces); empty = disabled")
	traceSample := fs.String("trace-sample", "always", "trace sampling policy: always, error, slow or off")
	traceSlow := fs.Duration("trace-slow", 100*time.Millisecond, "root-span duration threshold for -trace-sample slow")
	traceBuffer := fs.Int("trace-buffer", 256, "completed traces retained by the flight recorder")
	logFlags := obs.RegisterLogFlags(fs, "info")
	profileRules := fs.Bool("profile-rules", false, "enable the rule-engine cost profiler on the default run (see /debug/rules)")
	var guards guardFlags
	fs.Var(&guards, "guard", "peer=h transparency guard installed on every fresh run (repeatable)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	if *specPath == "" {
		fmt.Fprintln(stderr, "wfserve: -spec is required")
		fs.Usage()
		return fmt.Errorf("%w: -spec is required", errUsage)
	}
	logger, err := logFlags.NewLogger(stderr)
	if err != nil {
		return err
	}
	policy, err := obs.ParseSamplePolicy(*traceSample)
	if err != nil {
		return err
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
		return err
	}
	spec, err := parse.Parse(string(src))
	if err != nil {
		return err
	}

	guardMap := make(map[string]int)
	for _, g := range guards {
		peer, hs, ok := strings.Cut(g, "=")
		if !ok {
			return fmt.Errorf("bad -guard %q, want peer=h", g)
		}
		h, err := strconv.Atoi(hs)
		if err != nil {
			return fmt.Errorf("bad -guard budget %q: %v", hs, err)
		}
		guardMap[peer] = h
		fmt.Fprintf(stdout, "guarding transparency and %d-boundedness for %s (fresh runs)\n", h, peer)
	}
	var syncPolicy wal.SyncPolicy
	if *dataDir != "" {
		syncPolicy, err = wal.ParsePolicy(*fsync)
		if err != nil {
			return err
		}
	}

	// Bind before anything is opened: a taken address fails here, having
	// touched no data dir and no decision log, and a client that connects
	// while the fleet recovers waits in the listen backlog and is answered
	// once Serve starts, instead of being refused. Serve and Shutdown close
	// the listeners; the deferred closes cover the returns before them.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	var debugLn net.Listener
	if *debugAddr != "" {
		if debugLn, err = net.Listen("tcp", *debugAddr); err != nil {
			return err
		}
		defer debugLn.Close()
	}
	if bound != nil {
		bound(ln.Addr())
	}

	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	obs.RegisterBuildInfo(reg)

	// The decision log opens before the fleet so recovery itself is the
	// stream's first record for every run (see DurabilityConfig.DecisionLog).
	var declogger *declog.Logger
	if *declogDest != "" {
		sink, err := newDeclogSink(*declogDest, stdout, logger)
		if err != nil {
			return err
		}
		declogger, err = declog.New(declog.Config{Sink: sink, Registry: reg, Logger: logger})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "decision log streaming to %s\n", sink.Describe())
	}
	// closeDeclog drains whatever the queue holds and closes the sink; it
	// runs once no more decisions can be emitted.
	closeDeclog := func(ctx context.Context) {
		if declogger != nil {
			if err := declogger.Close(ctx); err != nil {
				fmt.Fprintln(stderr, "wfserve: closing decision log:", err)
			}
		}
	}

	// The rule-engine profiler attributes evaluation cost per rule across
	// the default run's live run, reads and guard checks. The Manager gives
	// it to the default run only, so sibling runs in the fleet never bleed
	// into its tallies.
	var profiler *prof.Profiler
	if *profileRules {
		profiler = prof.New()
		profiler.Instrument(reg)
		fmt.Fprintln(stdout, "rule-engine profiler on for the default run (wf_rule_*, /debug/rules)")
	}

	// Each run's WAL is locked before it is read, so a second server on a
	// live data dir stops here, whatever port it was given.
	m, err := server.NewManager(server.ManagerConfig{
		Workflow: spec.Name,
		Prog:     spec.Program,
		DataDir:  *dataDir,
		Durability: server.DurabilityConfig{
			Sync:        syncPolicy,
			Strict:      *walStrict,
			IdemWindow:  *idemWindow,
			DecisionLog: declogger,
			Guards:      guardMap,
			Profiler:    profiler,
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
	})
	if err != nil {
		drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *shutdownTimeout)
		defer cancel()
		closeDeclog(drainCtx)
		return err
	}
	runs := m.Runs()
	if *dataDir != "" {
		events := 0
		for _, r := range runs {
			events += r.Events
		}
		if events > 0 || len(runs) > 1 {
			fmt.Fprintf(stdout, "recovered %d runs (%d events) from %s\n", len(runs), events, *dataDir)
		}
	}

	srv := &http.Server{Handler: m.Handler()}
	var debugSrv *http.Server
	if debugLn != nil {
		debugMux := obs.DebugMux(reg, tracer)
		// Ranked per-rule cost listing; serves {"enabled": false} when the
		// profiler is off so probes need not special-case the flag.
		debugMux.Handle("/debug/rules", prof.RulesHandler(profiler))
		debugSrv = &http.Server{Handler: debugMux}
		logger.Info("debug listener up", "addr", debugLn.Addr().String())
		go func() {
			if err := debugSrv.Serve(debugLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}
	fmt.Fprintf(stdout, "serving workflow %s on %s (%d runs)\n", spec.Name, ln.Addr(), len(runs))
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	var serveErr error
	select {
	case serveErr = <-errCh:
		// Listener failure before any signal.
	case <-ctx.Done():
		fmt.Fprintln(stdout, "wfserve: shutting down, draining in-flight requests")
	}
	drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(stderr, "wfserve: shutdown:", err)
	}
	if debugSrv != nil {
		_ = debugSrv.Shutdown(drainCtx)
	}
	// Sync and close every run's WAL (no-op for in-memory fleets).
	if err := m.Close(); err != nil {
		return fmt.Errorf("closing run fleet: %w", err)
	}
	// The fleet is closed, so no new decisions can be emitted.
	closeDeclog(drainCtx)
	if serveErr != nil {
		return serveErr
	}
	fmt.Fprintln(stdout, "wfserve: state persisted, bye")
	return nil
}

// newDeclogSink builds the -declog sink: an http(s):// URL uploads gzipped
// batches with retries, "stdout" (or "-") writes JSONL to standard output,
// anything else is a file path rotated past 64 MiB.
func newDeclogSink(dest string, stdout io.Writer, logger *slog.Logger) (declog.Sink, error) {
	switch {
	case strings.HasPrefix(dest, "http://") || strings.HasPrefix(dest, "https://"):
		return declog.NewHTTPSink(dest, client.Options{Logger: logger}), nil
	case dest == "stdout" || dest == "-":
		return declog.NewWriterSink(stdout, "stdout"), nil
	default:
		return declog.NewFileSink(dest, declog.FileOptions{MaxBytes: 64 << 20})
	}
}
