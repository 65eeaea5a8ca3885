// Package chaos is the seeded fault-injection soak for the serving stack
// wfserve runs: one server.Manager serves Config.Runs workflow runs over
// real HTTP to a fleet of retrying clients (internal/client), while an
// orchestrator arms per-run WAL failpoints (failed appends, torn writes,
// failed group syncs, slow syncs), drops responses after they were applied,
// and hard-crashes the whole process at random points — truncating every
// run's unsynced WAL tail independently to simulate page-cache loss — then
// recovers the fleet through the Manager's startup scan and asserts the
// paper-level invariants on every run:
//
//  1. durable-prefix-exact replay: everything released before the crash is
//     a prefix of the recovered run, event for event;
//  2. no event applied twice, despite every client retry (each operation
//     clears a unique candidate, so a double-apply is a duplicate
//     valuation in the trace);
//  3. no notification for a rolled-back event (every notified index is in
//     the recovered run);
//  4. checksums clean: no WAL record is ever reported corrupt.
//  5. reader consistency: polling readers observe a monotonically growing
//     released prefix — the reported length never shrinks (even across
//     crash/recover) and an index, once observed, never changes content —
//     and everything they saw matches the final recovered run.
//  6. decision-log fidelity: the decision stream (internal/declog, one
//     file across every generation and run, partitioned by Decision.Run)
//     holds no phantom accepted record (every accepted record's index,
//     rule and valuation appear in its run's final trace) and no acked
//     submission goes unlogged (every acknowledged candidate has an
//     accepted or idempotent-replay record consistent with its index).
//  7. run isolation: candidates are namespaced by run, and a candidate of
//     one run never appears in another run's trace.
//
// Every random choice flows from one seed, so a failing soak replays.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"collabwf/internal/client"
	"collabwf/internal/declog"
	"collabwf/internal/obs"
	"collabwf/internal/schema"
	"collabwf/internal/server"
	"collabwf/internal/trace"
	"collabwf/internal/wal"
	"collabwf/internal/workload"
)

// Fault names, as counted in Summary.Faults.
const (
	FaultFailAppend   = "fail_append"
	FaultTornWrite    = "torn_write"
	FaultFailedSync   = "failed_sync"
	FaultSlowSync     = "slow_sync"
	FaultCrashRecover = "crash_recover"
	FaultDropResponse = "drop_response"
)

// Config tunes a chaos soak.
type Config struct {
	// Seed drives every random choice; the same seed replays the same soak.
	Seed int64
	// Runs is the number of workflow runs the Manager serves: the default
	// run plus Runs-1 named siblings; ≤ 0 means 1.
	Runs int
	// Ops is the total number of client submissions to attempt (each with a
	// unique candidate); ≤ 0 means 400.
	Ops int
	// Workers is the client fleet size; worker w drives run w mod Runs.
	// ≤ 0 means max(4, Runs), and fewer than Runs is raised to Runs so every
	// run has a writer.
	Workers int
	// Readers is the polling-reader fleet size: clients that loop
	// /transitions (reader r on run r mod Runs) across every fault and
	// crash, asserting monotonic, prefix-consistent reads (invariant 5);
	// 0 means max(2, Runs), negative disables.
	Readers int
	// Injections is the target fault count; the orchestrator keeps injecting
	// until the ops are done AND at least this many faults fired; ≤ 0 means
	// 200.
	Injections int
	// CrashEveryN crash/recover cycles the fleet roughly once per N
	// injections; ≤ 0 means 12.
	CrashEveryN int
	// SnapshotEvery is each run's snapshot threshold; ≤ 0 means 32.
	SnapshotEvery int
	// Dir is the fleet data directory (the decision stream lands in
	// decisions.jsonl there); "" means a fresh temp dir (removed on
	// success, kept on failure for inspection).
	Dir string
	// Logger, when non-nil, narrates recoveries.
	Logger *slog.Logger
}

// Summary reports what a chaos soak did and found.
type Summary struct {
	Seed      int64 `json:"seed"`
	Runs      int   `json:"runs"`
	Ops       int   `json:"ops"`
	Acked     int   `json:"acked"`
	Ambiguous int   `json:"ambiguous"`
	Retries   int64 `json:"client_retries"`
	// Reads counts successful /transitions polls by the reader fleet.
	Reads      int64          `json:"reads"`
	Injections int            `json:"injections"`
	Faults     map[string]int `json:"faults"`
	Recoveries int            `json:"recoveries"`
	Checks     int            `json:"invariant_checks"`
	// EventsPerRun is each run's length after the final recovery.
	EventsPerRun map[string]int `json:"events_per_run"`
	// Decisions counts the records in the decision stream (all generations
	// and runs) and DecisionsDropped the records the bounded pipeline shed;
	// a healthy soak sheds none (the harness sizes the queue for its op
	// budget).
	Decisions        int      `json:"decisions"`
	DecisionsDropped uint64   `json:"decisions_dropped"`
	Violations       []string `json:"violations,omitempty"`
	Duration         string   `json:"duration"`
}

// harness is the mutable soak state shared by the orchestrator and the
// invariant checks.
type harness struct {
	cfg Config
	rnd *rand.Rand
	log *slog.Logger
	dir string
	ids []string
	// fps holds each run's failpoints; they outlive manager generations so
	// the orchestrator arms whichever generation is live.
	fps map[string]*wal.Failpoints

	// dlog is the decision stream shared by every generation and run;
	// decPath is its JSONL file.
	dlog    *declog.Logger
	decPath string

	// handler is the live fleet handler; nil drops connections (the
	// "process is down" window during a crash — every run dies together).
	handler atomic.Pointer[http.Handler]
	// dropNext arms the drop-response fault for the next submission.
	dropNext atomic.Bool

	// m is the current manager generation and notifCancel its
	// subscriptions; only the orchestrator goroutine touches them (workers
	// and readers reach the manager over HTTP).
	m           *server.Manager
	notifCancel []func()

	// notified collects each run's notification indices for the current
	// generation; reset at each recovery.
	notifMu  sync.Mutex
	notified map[string][]int

	// acked maps run → candidate → acknowledged index; ambiguous counts the
	// candidates whose outcome the client never learned.
	ackMu     sync.Mutex
	acked     map[string]map[string]int
	ambiguous int

	retriesTotal atomic.Int64
	reads        atomic.Int64

	vioMu      sync.Mutex
	violations []string
}

func (h *harness) violatef(format string, args ...any) {
	h.report(fmt.Sprintf(format, args...))
}

func (h *harness) report(vs ...string) {
	h.vioMu.Lock()
	defer h.vioMu.Unlock()
	h.violations = append(h.violations, vs...)
}

// Run executes one seeded chaos soak and returns its summary. The error is
// non-nil only for harness-level failures (cannot bind a port, cannot open
// the data dir); invariant violations are reported in Summary.Violations.
func Run(ctx context.Context, cfg Config) (*Summary, error) {
	start := time.Now()
	cfg.Runs = max(cfg.Runs, 1)
	if cfg.Ops <= 0 {
		cfg.Ops = 400
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	cfg.Workers = max(cfg.Workers, cfg.Runs)
	if cfg.Readers == 0 {
		cfg.Readers = max(2, cfg.Runs)
	}
	cfg.Readers = max(cfg.Readers, 0)
	if cfg.Injections <= 0 {
		cfg.Injections = 200
	}
	if cfg.CrashEveryN <= 0 {
		cfg.CrashEveryN = 12
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 32
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.Discard()
	}
	h := &harness{
		cfg:      cfg,
		rnd:      rand.New(rand.NewSource(cfg.Seed)),
		log:      logger,
		ids:      fleetRunIDs(cfg.Runs),
		fps:      make(map[string]*wal.Failpoints),
		notified: make(map[string][]int),
		acked:    make(map[string]map[string]int),
	}
	for _, id := range h.ids {
		h.fps[id] = wal.NewFailpoints()
		h.acked[id] = make(map[string]int)
	}
	ownDir := false
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "wfchaos-*")
		if err != nil {
			return nil, err
		}
		cfg.Dir, ownDir = dir, true
	}
	h.dir = cfg.Dir

	// One decision stream across every generation and run, like a
	// restarting process appending to the same audit file. The queue is
	// sized so a healthy soak never sheds a record (shedding under this
	// sizing is itself an invariant-6 violation), and the flush interval is
	// short so most records are on disk before a crash even lands.
	h.decPath = filepath.Join(h.dir, "decisions.jsonl")
	sink, err := declog.NewFileSink(h.decPath, declog.FileOptions{})
	if err != nil {
		return nil, fmt.Errorf("chaos: decision log: %w", err)
	}
	h.dlog, err = declog.New(declog.Config{
		Sink:          sink,
		Capacity:      4 * cfg.Ops,
		FlushInterval: 25 * time.Millisecond,
		Logger:        logger,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: decision log: %w", err)
	}

	if err := h.openManager(true); err != nil {
		return nil, err
	}
	h.publish()

	// One persistent listener for the whole soak: crashes swap the handler,
	// clients keep their base URL across manager generations — exactly how
	// a restarting process looks from outside.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(h.serve)}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	// Client fleet: each worker clears a disjoint stream of unique,
	// run-namespaced candidates through one run-scoped client kept for the
	// whole soak (a client that outlives the server keeps its
	// idempotency-key identity, so a key is never reissued), and keeps the
	// traffic flowing until the orchestrator has met both its op and
	// injection budgets — faults must land on live requests, not an idle
	// server.
	var wg sync.WaitGroup
	var opsDone atomic.Int64
	stop := make(chan struct{})
	perWorker := cfg.Ops / cfg.Workers
	for w := 0; w < cfg.Workers; w++ {
		run := h.ids[w%cfg.Runs]
		cl := client.New(base, client.Options{
			RequestTimeout: 5 * time.Second,
			MaxRetries:     16,
			BaseBackoff:    2 * time.Millisecond,
			MaxBackoff:     250 * time.Millisecond,
			Rand:           rand.New(rand.NewSource(cfg.Seed + int64(w) + 1)),
		}).ForRun(run)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() { h.retriesTotal.Add(cl.Retries()) }()
			for n := 0; ctx.Err() == nil; n++ {
				if n >= perWorker {
					select {
					case <-stop:
						return
					default:
					}
				}
				x := fmt.Sprintf("%s:w%d-%d", run, id, n)
				res, err := cl.Submit(ctx, "hr", "clear", map[string]string{"x": x})
				h.ackMu.Lock()
				if err == nil {
					h.acked[run][x] = res.Index
				} else {
					var ae *client.APIError
					if errors.As(err, &ae) && !ae.Temporary() {
						// A definite rejection of a unique candidate means a
						// retry re-executed against its own applied event (the
						// program refuses a second clear of x) or the server
						// invented the fact.
						h.violatef("run %s op %s: retry double-apply: definite rejection of a unique candidate: %v", run, x, err)
					}
					h.ambiguous++
				}
				h.ackMu.Unlock()
				opsDone.Add(1)
				if n%7 == 3 {
					// Exercise a read path mid-faults; outcome irrelevant.
					rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
					_, _ = cl.View(rctx, "hr")
					cancel()
				}
			}
		}(w)
	}

	// Reader fleet: polling clients that keep reading /transitions across
	// every fault and crash, recording what they saw (invariant 5). Reads
	// poll from 0, not a tail cursor, so every poll re-checks the entire
	// observed prefix for mutation.
	readers := make([]readerLog, cfg.Readers)
	peers := []string{"hr", "cfo", "ceo"}
	for r := range readers {
		rl := &readers[r]
		rl.run, rl.peer = h.ids[r%cfg.Runs], peers[r%len(peers)]
		cl := client.New(base, client.Options{
			RequestTimeout: 2 * time.Second,
			MaxRetries:     4,
			BaseBackoff:    2 * time.Millisecond,
			MaxBackoff:     100 * time.Millisecond,
		}).ForRun(rl.run)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				select {
				case <-stop:
					return
				default:
				}
				rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
				ts, n, err := cl.Transitions(rctx, rl.peer, 0)
				cancel()
				if err != nil {
					// Transport errors are the faults at work (dead server,
					// dropped connection) — only consistency violations count.
					continue
				}
				h.reads.Add(1)
				if msg := rl.observe(ts, n); msg != "" {
					h.report(msg)
					return
				}
			}
		}()
	}

	// Orchestrator: inject faults until both budgets are met, then release
	// the fleet. Every injection draws its target run from the seed.
	faults := map[string]int{}
	injections, recoveries, checks := 0, 0, 0
	for (opsDone.Load() < int64(cfg.Ops) || injections < cfg.Injections) && ctx.Err() == nil {
		time.Sleep(time.Duration(1+h.rnd.Intn(8)) * time.Millisecond)
		kind := h.pickFault(injections)
		run := h.ids[h.rnd.Intn(len(h.ids))]
		fp := h.fps[run]
		switch kind {
		case FaultFailAppend:
			seq := h.nextSeqGuess(run)
			fp.FailAppend(seq, fmt.Errorf("chaos: injected append failure at run %s seq %d", run, seq))
		case FaultTornWrite:
			fp.TornWrite(h.nextSeqGuess(run), 1+h.rnd.Intn(40))
		case FaultFailedSync:
			fp.FailNextSync(fmt.Errorf("chaos: injected fsync failure"))
		case FaultSlowSync:
			fp.SlowSync(time.Duration(1+h.rnd.Intn(5)) * time.Millisecond)
			time.Sleep(time.Duration(2+h.rnd.Intn(10)) * time.Millisecond)
			fp.SlowSync(0)
		case FaultDropResponse:
			h.dropNext.Store(true)
		case FaultCrashRecover:
			h.crashRecover()
			recoveries++
			checks += len(h.ids)
		}
		faults[kind]++
		injections++
	}
	close(stop)
	wg.Wait()

	// Final verdict: one last crash/recover (exercising recovery one more
	// time with the complete op ledger), then check every invariant.
	h.crashRecover()
	recoveries++
	checks += len(h.ids)
	faults[FaultCrashRecover]++
	injections++

	m := h.m
	for _, cancel := range h.notifCancel {
		cancel()
	}
	final := make(map[string]*trace.Trace, len(h.ids))
	events := make(map[string]int, len(h.ids))
	for _, id := range h.ids {
		co, _ := m.Run(id)
		final[id] = co.Trace()
		events[id] = len(final[id].Events)
	}
	// (5, closing bracket) Everything any reader ever observed must agree
	// with its run's final recovered trace.
	for i := range readers {
		rl := &readers[i]
		co, _ := m.Run(rl.run)
		ts, n, err := co.TransitionsAndLen(schema.Peer(rl.peer), 0)
		if err != nil {
			h.violatef("reader(%s/%s): final transitions: %v", rl.run, rl.peer, err)
			continue
		}
		h.report(rl.verify(ts, n)...)
	}
	if err := m.Close(); err != nil {
		h.violatef("closing fleet: %v", err)
	}

	// (6) Decision-log fidelity: with the stream closed (drained to disk),
	// replay decisions.jsonl against every run's final trace and the ack
	// ledger.
	if err := h.dlog.Close(context.Background()); err != nil {
		h.violatef("decision log close: %v", err)
	}
	st := h.dlog.Status()
	if st.Dropped != 0 {
		h.violatef("decision pipeline shed %d records despite a queue sized for the op budget", st.Dropped)
	}
	if st.FailedRecords != 0 {
		h.violatef("decision sink lost %d records (%d failed exports, last: %s)",
			st.FailedRecords, st.ExportFailures, st.LastError)
	}
	recs, err := readDecisions(h.decPath)
	if err != nil {
		h.violatef("decision log: %v", err)
	}
	h.ackMu.Lock()
	h.report(checkDecisions(recs, final, h.acked)...)
	acked, ambiguous := 0, h.ambiguous
	for _, byRun := range h.acked {
		acked += len(byRun)
	}
	h.ackMu.Unlock()
	checks++

	sum := &Summary{
		Seed:             cfg.Seed,
		Runs:             cfg.Runs,
		Ops:              int(opsDone.Load()),
		Acked:            acked,
		Ambiguous:        ambiguous,
		Retries:          h.retriesTotal.Load(),
		Reads:            h.reads.Load(),
		Injections:       injections,
		Faults:           faults,
		Recoveries:       recoveries,
		Checks:           checks,
		EventsPerRun:     events,
		Decisions:        len(recs),
		DecisionsDropped: st.Dropped,
		Violations:       h.violations,
		Duration:         time.Since(start).String(),
	}
	if ownDir && len(h.violations) == 0 {
		os.RemoveAll(h.dir)
	}
	return sum, nil
}

// fleetRunIDs names the fleet: the default run plus n-1 numbered siblings.
func fleetRunIDs(n int) []string {
	ids := []string{server.DefaultRun}
	for i := 1; i < n; i++ {
		ids = append(ids, fmt.Sprintf("run%02d", i))
	}
	return ids
}

// pickFault draws the next fault kind. The first six injections cycle
// through every kind once, so even tiny soaks cover the whole matrix; after
// that the draw is weighted random.
func (h *harness) pickFault(injected int) string {
	kinds := []string{FaultFailAppend, FaultTornWrite, FaultFailedSync,
		FaultSlowSync, FaultDropResponse, FaultCrashRecover}
	if injected < len(kinds) {
		return kinds[injected]
	}
	// Crash/recover is the expensive one; keep it to roughly 1/CrashEveryN.
	if h.rnd.Intn(h.cfg.CrashEveryN) == 0 {
		return FaultCrashRecover
	}
	return kinds[h.rnd.Intn(len(kinds)-1)]
}

// nextSeqGuess aims a seq-keyed failpoint a little ahead of one run's
// accepted prefix; a guess that never lands stays harmlessly armed until
// the next crash resets it.
func (h *harness) nextSeqGuess(run string) int {
	co, _ := h.m.Run(run) // openManager checked every run is present
	return co.Len() + h.rnd.Intn(3)
}

// serve dispatches to the live handler generation; a nil handler (mid
// crash) kills the connection without a response, like a dead process.
func (h *harness) serve(w http.ResponseWriter, r *http.Request) {
	hp := h.handler.Load()
	if hp == nil {
		panic(http.ErrAbortHandler)
	}
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/submit") && h.dropNext.CompareAndSwap(true, false) {
		// Apply the submission, then drop the response on the floor — the
		// ambiguous failure the idempotency key exists for.
		(*hp).ServeHTTP(httptest.NewRecorder(), r)
		panic(http.ErrAbortHandler)
	}
	(*hp).ServeHTTP(w, r)
}

// openManager recovers (or first boots) a manager generation over the data
// dir and subscribes to every run's notifications; publish then opens it to
// traffic. create makes the missing named runs on first boot; recoveries
// find them in the startup scan.
func (h *harness) openManager(create bool) error {
	m, err := server.NewManager(server.ManagerConfig{
		Workflow: "Hiring",
		Prog:     workload.Hiring(),
		DataDir:  h.dir,
		Durability: server.DurabilityConfig{
			Sync:          wal.SyncAlways,
			SnapshotEvery: h.cfg.SnapshotEvery,
			DecisionLog:   h.dlog,
		},
		Failpoints: func(run string) *wal.Failpoints { return h.fps[run] },
	})
	if err != nil {
		return fmt.Errorf("chaos: recovery failed: %w", err)
	}
	var cancels []func()
	for _, id := range h.ids {
		if _, ok := m.Run(id); !ok && create {
			if err := m.CreateRun(id); err != nil {
				m.Close()
				return fmt.Errorf("chaos: creating run %s: %w", id, err)
			}
		}
		co, ok := m.Run(id)
		if !ok {
			m.Close()
			return fmt.Errorf("chaos: run %s missing from the recovered fleet", id)
		}
		ch, cancel, err := co.Subscribe(schema.Peer("hr"), 8192)
		if err != nil {
			m.Close()
			return err
		}
		cancels = append(cancels, cancel)
		go func() {
			for n := range ch {
				h.notifMu.Lock()
				h.notified[id] = append(h.notified[id], n.Index)
				h.notifMu.Unlock()
			}
		}()
	}
	h.m, h.notifCancel = m, cancels
	return nil
}

// publish routes the listener to the current manager generation.
func (h *harness) publish() {
	handler := h.m.Handler()
	h.handler.Store(&handler)
}

// runWAL returns one run's WAL path under the data dir.
func (h *harness) runWAL(id string) string {
	if id == server.DefaultRun {
		return filepath.Join(h.dir, "wal.log")
	}
	return filepath.Join(h.dir, "runs", id, "wal.log")
}

// crashRecover kills every run at once — each WAL tail independently
// truncated at a random point above its durable offset, like page-cache
// loss across one machine — recovers the whole fleet through the manager's
// startup scan, and checks each run's invariants in isolation before the
// new generation takes traffic (so no fresh ack can race the recovered
// trace the check reads).
func (h *harness) crashRecover() {
	h.handler.Store(nil)
	for _, fp := range h.fps {
		fp.Reset()
	}
	// The released prefix at crash time: everything any observer ever saw.
	pre := make(map[string]*trace.Trace, len(h.ids))
	for _, id := range h.ids {
		co, _ := h.m.Run(id) // openManager checked every run is present
		pre[id] = co.Trace()
		durable, size, err := co.Crash()
		if err != nil {
			h.violatef("run %s crash: %v", id, err)
		}
		// Simulated page-cache loss: the bytes past the durable offset may
		// or may not have reached the platter; cut the file at a random
		// point in [durable, size].
		if size > durable && h.rnd.Intn(2) == 0 {
			cut := durable + h.rnd.Int63n(size-durable+1)
			if err := os.Truncate(h.runWAL(id), cut); err != nil {
				h.violatef("run %s: truncating tail: %v", id, err)
			}
		}
	}
	for _, cancel := range h.notifCancel {
		cancel()
	}
	// Crash() returned with each coordinator lock released, so every
	// decision the dead generation emitted is queued; drain it the way a
	// SIGTERM handler would, before the next generation appends its
	// recovery records.
	h.dlog.Flush(context.Background())
	h.notifMu.Lock()
	notified := h.notified
	h.notified = make(map[string][]int)
	h.notifMu.Unlock()

	if err := h.openManager(false); err != nil {
		h.violatef("%v", err)
		return
	}
	for _, id := range h.ids {
		co, _ := h.m.Run(id)
		post, corrupt := co.Trace(), co.WALCorruptRecords()
		h.ackMu.Lock()
		vs := checkRecovery(id, pre[id], post, h.acked[id], notified[id], corrupt)
		h.ackMu.Unlock()
		h.report(vs...)
		h.log.Info("run recovered", slog.String("run", id),
			slog.Int("pre_events", len(pre[id].Events)), slog.Int("recovered_events", len(post.Events)))
	}
	h.publish()
}
