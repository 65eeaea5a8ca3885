// Package chaos is the seeded fault-injection soak for the durable serving
// stack: a fleet of retrying clients (internal/client) drives a durable
// coordinator over real HTTP while an orchestrator arms WAL failpoints
// (failed appends, torn writes, failed group syncs, slow syncs), drops
// responses after they were applied, and hard-crashes the coordinator at
// random points — truncating the unsynced WAL tail to simulate page-cache
// loss — then recovers and asserts the paper-level invariants:
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
//     file across every coordinator generation) holds no phantom accepted
//     record (every accepted record's index, rule and valuation appear in
//     the final recovered run) and no acked submission goes unlogged
//     (every acknowledged candidate has an accepted or idempotent-replay
//     record consistent with its index).
//
// Every random choice flows from one seed, so a failing run replays.
package chaos

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

// Config tunes a chaos run.
type Config struct {
	// Seed drives every random choice; the same seed replays the same run.
	Seed int64
	// Ops is the total number of client submissions to attempt (each with a
	// unique candidate); ≤ 0 means 400.
	Ops int
	// Workers is the client fleet size; ≤ 0 means 4.
	Workers int
	// Readers is the polling-reader fleet size: clients that loop
	// /transitions across every fault and crash, asserting monotonic,
	// prefix-consistent reads (invariant 5); 0 means 2, negative disables.
	Readers int
	// Injections is the target fault count; the orchestrator keeps injecting
	// until the ops are done AND at least this many faults fired; ≤ 0 means
	// 200.
	Injections int
	// CrashEveryN crash/recover cycles the coordinator roughly once per N
	// injections; ≤ 0 means 12.
	CrashEveryN int
	// SnapshotEvery is the coordinator's snapshot threshold; ≤ 0 means 32.
	SnapshotEvery int
	// Dir is the WAL directory; "" means a fresh temp dir (removed on
	// success, kept on failure for inspection).
	Dir string
	// NoDecisionLog disables the decision-log stream and its fidelity
	// invariant (6). The stream is on by default: decisions.jsonl in Dir,
	// shared by every coordinator generation.
	NoDecisionLog bool
	// Logger, when non-nil, narrates injections and recoveries.
	Logger *slog.Logger
}

// Summary reports what a chaos run did and found.
type Summary struct {
	Seed      int64 `json:"seed"`
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
	// Decisions counts the records in the decision stream (all generations)
	// and DecisionsDropped the records the bounded pipeline shed; a healthy
	// soak sheds none (the harness sizes the queue for its op budget).
	Decisions        int      `json:"decisions"`
	DecisionsDropped uint64   `json:"decisions_dropped"`
	Violations       []string `json:"violations,omitempty"`
	Duration         string   `json:"duration"`
}

// harness is the mutable run state shared by the orchestrator and the
// invariant checker.
type harness struct {
	cfg Config
	rnd *rand.Rand
	log *slog.Logger

	dir string
	fp  *wal.Failpoints

	// dlog is the decision stream shared by every coordinator generation
	// (nil when Config.NoDecisionLog); decPath is its JSONL file.
	dlog    *declog.Logger
	decPath string

	// handler is the live HTTP handler; nil drops connections (the
	// "coordinator process is down" window during a crash).
	handler atomic.Pointer[http.Handler]
	// dropNext arms the drop-response fault for the next /submit.
	dropNext atomic.Bool

	// co is the current coordinator generation; coMu orders crash/recover
	// against invariant checks (workers never touch co directly — only
	// HTTP).
	coMu sync.Mutex
	co   *server.Coordinator

	// notifCh collects notification indices for the current generation;
	// reset at each recovery.
	notifMu     sync.Mutex
	notified    []int
	notifCancel func()

	// acked maps candidate → acknowledged index; ambiguous holds candidates
	// whose outcome the client never learned.
	ackMu     sync.Mutex
	acked     map[string]int
	ambiguous map[string]bool

	// retriesTotal accumulates the fleet's retry counts as workers exit.
	retriesTotal atomic.Int64
	// reads counts the reader fleet's successful /transitions polls.
	reads atomic.Int64

	violations []string
	vioMu      sync.Mutex
}

func (h *harness) violatef(format string, args ...any) {
	h.vioMu.Lock()
	defer h.vioMu.Unlock()
	h.violations = append(h.violations, fmt.Sprintf(format, args...))
}

// Run executes one seeded chaos soak and returns its summary. The error is
// non-nil only for harness-level failures (cannot bind a port, cannot open
// the WAL dir); invariant violations are reported in Summary.Violations.
func Run(ctx context.Context, cfg Config) (*Summary, error) {
	start := time.Now()
	if cfg.Ops <= 0 {
		cfg.Ops = 400
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Readers == 0 {
		cfg.Readers = 2
	}
	if cfg.Readers < 0 {
		cfg.Readers = 0
	}
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
		cfg:       cfg,
		rnd:       rand.New(rand.NewSource(cfg.Seed)),
		log:       logger,
		fp:        wal.NewFailpoints(),
		acked:     make(map[string]int),
		ambiguous: make(map[string]bool),
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

	if !cfg.NoDecisionLog {
		// One decision stream across every coordinator generation, like a
		// restarting process appending to the same audit file. The queue is
		// sized so a healthy soak never sheds a record (shedding under this
		// sizing is itself an invariant-6 violation), and the flush interval
		// is short so most records are on disk before a crash even lands.
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
	}

	if err := h.openCoordinator(); err != nil {
		return nil, err
	}

	// One persistent listener for the whole run: crashes swap the handler,
	// clients keep their base URL across coordinator generations — exactly
	// how a restarting process looks from outside.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(h.serve)}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	// Client fleet: each worker clears a disjoint stream of unique
	// candidates, and keeps the traffic flowing until the orchestrator has
	// met both its op and injection budgets — faults must land on live
	// requests, not an idle server.
	var wg sync.WaitGroup
	var opsDone atomic.Int64
	stop := make(chan struct{})
	perWorker := cfg.Ops / cfg.Workers
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := client.New(base, client.Options{
				RequestTimeout: 5 * time.Second,
				MaxRetries:     16,
				BaseBackoff:    2 * time.Millisecond,
				MaxBackoff:     250 * time.Millisecond,
				Rand:           rand.New(rand.NewSource(cfg.Seed + int64(id) + 1)),
			})
			defer func() { h.retriesTotal.Add(cl.Retries()) }()
			for n := 0; ctx.Err() == nil; n++ {
				if n >= perWorker {
					select {
					case <-stop:
						return
					default:
					}
				}
				x := fmt.Sprintf("w%d-%d", id, n)
				res, err := cl.Submit(ctx, "hr", "clear", map[string]string{"x": x})
				h.ackMu.Lock()
				switch {
				case err == nil:
					h.acked[x] = res.Index
				default:
					var ae *client.APIError
					if errors.As(err, &ae) && !ae.Temporary() {
						// A definite rejection of a unique candidate means the
						// server double-applied a retry or invented the fact.
						h.violatef("op %s: unexpected definite rejection: %v", x, err)
					}
					h.ambiguous[x] = true
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
	readerLogs := make([]chaosReaderLog, cfg.Readers)
	peers := []string{"hr", "cfo", "ceo"}
	for r := 0; r < cfg.Readers; r++ {
		readerLogs[r].peer = peers[r%len(peers)]
		wg.Add(1)
		go func(rl *chaosReaderLog) {
			defer wg.Done()
			cl := client.New(base, client.Options{
				RequestTimeout: 2 * time.Second,
				MaxRetries:     4,
				BaseBackoff:    2 * time.Millisecond,
				MaxBackoff:     100 * time.Millisecond,
			})
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
					h.violatef("reader(%s): %s", rl.peer, msg)
					return
				}
			}
		}(&readerLogs[r])
	}

	// Orchestrator: inject faults until both budgets are met, then release
	// the fleet.
	faults := map[string]int{}
	injections, recoveries, checks := 0, 0, 0
	for (opsDone.Load() < int64(cfg.Ops) || injections < cfg.Injections) && ctx.Err() == nil {
		time.Sleep(time.Duration(1+h.rnd.Intn(8)) * time.Millisecond)
		kind := h.pickFault(injections)
		switch kind {
		case FaultFailAppend:
			seq := h.nextSeqGuess()
			h.fp.FailAppend(seq, fmt.Errorf("chaos: injected append failure at seq %d", seq))
		case FaultTornWrite:
			h.fp.TornWrite(h.nextSeqGuess(), 1+h.rnd.Intn(40))
		case FaultFailedSync:
			h.fp.FailNextSync(fmt.Errorf("chaos: injected fsync failure"))
		case FaultSlowSync:
			h.fp.SlowSync(time.Duration(1+h.rnd.Intn(5)) * time.Millisecond)
			time.Sleep(time.Duration(2+h.rnd.Intn(10)) * time.Millisecond)
			h.fp.SlowSync(0)
		case FaultDropResponse:
			h.dropNext.Store(true)
		case FaultCrashRecover:
			h.crashRecover()
			recoveries++
			checks++
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
	checks++
	faults[FaultCrashRecover]++
	injections++

	h.coMu.Lock()
	co := h.co
	h.coMu.Unlock()
	// (5, closing bracket) Everything any reader ever observed must agree
	// with the final recovered run.
	h.checkReaders(co, readerLogs)
	if h.notifCancel != nil {
		h.notifCancel()
	}
	finalTrace := co.Trace()
	_ = co.Close()

	// (6) Decision-log fidelity: with the stream closed (drained to disk),
	// replay decisions.jsonl against the final recovered run and the ack
	// ledger — no phantom accepted record, no acked-but-unlogged candidate.
	decisions, decisionsDropped := 0, uint64(0)
	if h.dlog != nil {
		if err := h.dlog.Close(context.Background()); err != nil {
			h.violatef("decision log close: %v", err)
		}
		st := h.dlog.Status()
		decisionsDropped = st.Dropped
		decisions = h.checkDecisions(finalTrace, st)
		checks++
	}

	h.ackMu.Lock()
	acked, ambiguous := len(h.acked), len(h.ambiguous)
	h.ackMu.Unlock()
	sum := &Summary{
		Seed:       cfg.Seed,
		Ops:        int(opsDone.Load()),
		Acked:      acked,
		Ambiguous:  ambiguous,
		Retries:    h.retriesTotal.Load(),
		Reads:      h.reads.Load(),
		Injections: injections,
		Faults:     faults,
		Recoveries: recoveries,
		Checks:     checks,

		Decisions:        decisions,
		DecisionsDropped: decisionsDropped,

		Violations: h.violations,
		Duration:   time.Since(start).String(),
	}
	if ownDir && len(h.violations) == 0 {
		os.RemoveAll(h.dir)
	}
	return sum, nil
}

// chaosReaderLog records what one polling reader observed across the whole
// run — crash/recover cycles included — for the invariant-5 assertions:
// the released length a reader sees never shrinks, and an index, once
// observed with some (ω, rule, view, because) content, never changes.
type chaosReaderLog struct {
	peer   string
	seen   map[int]client.Transition
	maxLen int
}

// observe folds one successful poll into the log; a non-empty return is an
// invariant violation.
func (rl *chaosReaderLog) observe(ts []client.Transition, n int) string {
	if rl.seen == nil {
		rl.seen = make(map[int]client.Transition)
	}
	if n < rl.maxLen {
		return fmt.Sprintf("released length went backwards: %d after %d", n, rl.maxLen)
	}
	rl.maxLen = n
	for _, t := range ts {
		prev, ok := rl.seen[t.Index]
		if !ok {
			rl.seen[t.Index] = t
			continue
		}
		if prev.Omega != t.Omega || prev.Rule != t.Rule || prev.View != t.View ||
			!sameInts(prev.Because, t.Because) {
			return fmt.Sprintf("index %d changed under the reader:\n was: %+v\n now: %+v",
				t.Index, prev, t)
		}
	}
	return ""
}

// checkReaders closes invariant 5: every (index, content) any reader ever
// observed — across every generation — must agree with the final recovered
// run, and nobody may have seen past its released length.
func (h *harness) checkReaders(rec *server.Coordinator, logs []chaosReaderLog) {
	for i := range logs {
		rl := &logs[i]
		if rl.seen == nil {
			continue
		}
		ts, n, err := rec.TransitionsAndLen(schema.Peer(rl.peer), 0)
		if err != nil {
			h.violatef("reader(%s): final transitions: %v", rl.peer, err)
			continue
		}
		if rl.maxLen > n {
			h.violatef("reader(%s) observed released length %d but the final recovered run has %d",
				rl.peer, rl.maxLen, n)
		}
		final := make(map[int]server.Notification, len(ts))
		for _, t := range ts {
			final[t.Index] = t
		}
		for idx, saw := range rl.seen {
			f, ok := final[idx]
			if !ok {
				h.violatef("reader(%s) observed index %d, absent from the final recovered run",
					rl.peer, idx)
				continue
			}
			if f.Omega != saw.Omega || f.Rule != saw.Rule || f.View != saw.View ||
				!sameInts(f.Because, saw.Because) {
				h.violatef("reader(%s) index %d diverges from the final recovered run:\n saw:   %+v\n final: %+v",
					rl.peer, idx, saw, f)
			}
		}
	}
}

// sameInts compares two index lists, treating nil and empty as equal (the
// JSON round-trip drops empty because-lists).
func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pickFault draws the next fault kind. The first six injections cycle
// through every kind once, so even tiny runs cover the whole matrix; after
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

// nextSeqGuess aims a seq-keyed failpoint a little ahead of the accepted
// prefix; a guess that never lands stays harmlessly armed until Reset.
func (h *harness) nextSeqGuess() int {
	h.coMu.Lock()
	defer h.coMu.Unlock()
	return h.co.Len() + h.rnd.Intn(3)
}

// serve dispatches to the live handler generation; a nil handler (mid
// crash) kills the connection without a response, like a dead process.
func (h *harness) serve(w http.ResponseWriter, r *http.Request) {
	hp := h.handler.Load()
	if hp == nil {
		panic(http.ErrAbortHandler)
	}
	if r.Method == http.MethodPost && r.URL.Path == "/submit" && h.dropNext.CompareAndSwap(true, false) {
		// Apply the submission, then drop the response on the floor — the
		// ambiguous failure the idempotency key exists for.
		rec := httptest.NewRecorder()
		(*hp).ServeHTTP(rec, r)
		panic(http.ErrAbortHandler)
	}
	(*hp).ServeHTTP(w, r)
}

// openCoordinator recovers a coordinator generation from the WAL dir and
// publishes its handler and notification subscription.
func (h *harness) openCoordinator() error {
	co, err := server.NewDurable("Hiring", workload.Hiring(), server.DurabilityConfig{
		Dir:           h.dir,
		Sync:          wal.SyncAlways,
		SnapshotEvery: h.cfg.SnapshotEvery,
		Failpoints:    h.fp,
		DecisionLog:   h.dlog,
	})
	if err != nil {
		return fmt.Errorf("chaos: recovery failed: %w", err)
	}
	ch, cancel, err := co.Subscribe(schema.Peer("hr"), 8192)
	if err != nil {
		co.Close()
		return err
	}
	go func() {
		for n := range ch {
			h.notifMu.Lock()
			h.notified = append(h.notified, n.Index)
			h.notifMu.Unlock()
		}
	}()
	h.coMu.Lock()
	h.co = co
	h.notifCancel = cancel
	h.coMu.Unlock()
	var handler http.Handler = server.Handler(co)
	h.handler.Store(&handler)
	return nil
}

// crashRecover is one kill → (maybe) lose the unsynced tail → recover
// cycle, with the invariant check in the middle.
func (h *harness) crashRecover() {
	h.handler.Store(nil)
	h.fp.Reset()

	h.coMu.Lock()
	co := h.co
	h.coMu.Unlock()

	// The released prefix at crash time: everything any observer ever saw.
	preTrace := co.Trace()
	durable, size, err := co.Crash()
	if err != nil {
		h.violatef("crash: %v", err)
	}
	// Simulated page-cache loss: the bytes past the durable offset may or
	// may not have reached the platter; cut the file at a random point in
	// [durable, size].
	if size > durable && h.rnd.Intn(2) == 0 {
		cut := durable + h.rnd.Int63n(size-durable+1)
		if err := os.Truncate(filepath.Join(h.dir, "wal.log"), cut); err != nil {
			h.violatef("truncating tail: %v", err)
		}
	}
	if h.notifCancel != nil {
		h.notifCancel()
	}
	// Crash() returned with the coordinator lock released, so every decision
	// the dead generation emitted is queued; drain it the way a SIGTERM
	// handler would, before the next generation appends its recovery record.
	h.dlog.Flush(context.Background())
	h.notifMu.Lock()
	notified := h.notified
	h.notified = nil
	h.notifMu.Unlock()

	if err := h.openCoordinator(); err != nil {
		h.violatef("%v", err)
		return
	}
	h.coMu.Lock()
	rec := h.co
	h.coMu.Unlock()
	h.checkInvariants(preTrace, rec, notified)
	h.log.Info("crash/recover cycle complete",
		slog.Int64("durable", durable), slog.Int64("size", size),
		slog.Int("recovered_events", rec.Len()))
}

// checkInvariants asserts the four run invariants against one recovered
// generation.
func (h *harness) checkInvariants(pre *trace.Trace, rec *server.Coordinator, notified []int) {
	post := rec.Trace()

	// (1) Durable-prefix-exact replay: the pre-crash released prefix is a
	// prefix of the recovered run, event for event. (The recovered run may
	// be LONGER: events durable or tail-surviving whose submitters never
	// saw the ack.)
	if len(post.Events) < len(pre.Events) {
		h.violatef("recovered run (%d events) shorter than the released pre-crash prefix (%d)",
			len(post.Events), len(pre.Events))
	}
	for i := range pre.Events {
		if i >= len(post.Events) {
			break
		}
		a, b := pre.Events[i], post.Events[i]
		if a.Rule != b.Rule || a.Valuation["x"] != b.Valuation["x"] {
			h.violatef("event %d diverged across recovery: %s(%v) → %s(%v)",
				i, a.Rule, a.Valuation, b.Rule, b.Valuation)
		}
	}

	// (2) No double-apply: every candidate appears at most once, and every
	// acknowledged candidate exactly once.
	counts := make(map[string]int, len(post.Events))
	for _, ev := range post.Events {
		counts[ev.Valuation["x"]]++
	}
	for x, n := range counts {
		if n > 1 {
			h.violatef("candidate %s applied %d times (retry double-apply)", x, n)
		}
	}
	h.ackMu.Lock()
	for x, idx := range h.acked {
		if counts[x] != 1 {
			h.violatef("acked candidate %s (index %d) appears %d times in the recovered run",
				x, idx, counts[x])
		}
	}
	h.ackMu.Unlock()

	// (3) No notification for a rolled-back event: every notified index is
	// inside the recovered run (we never cut below the durable = released
	// prefix).
	for _, idx := range notified {
		if idx >= len(post.Events) {
			h.violatef("notification delivered for index %d but the recovered run has %d events",
				idx, len(post.Events))
		}
	}

	// (4) Checksums clean.
	if n := rec.WALCorruptRecords(); n != 0 {
		h.violatef("recovery dropped %d corrupt records from an uncorrupted log", n)
	}
}

// checkDecisions closes invariant 6 against the closed (fully drained)
// decision stream. The stream is at-most-once by design, but under the
// harness's regime — queue sized for the op budget, a Flush at every crash
// (the drain a SIGTERM handler performs) — both directions are exact:
//
//   - no phantoms: accept records are emitted only after the event is
//     durable, and crashes only ever cut the WAL above the durable offset,
//     so every accepted record must name an (index, rule, valuation)
//     present in the final recovered run;
//   - no acked-but-unlogged: a client ack means either the original
//     submission emitted an accept record or a retry was answered from the
//     idempotency window and emitted a replay record, and neither may have
//     been shed.
//
// Returns the number of records parsed.
func (h *harness) checkDecisions(post *trace.Trace, st *declog.Status) int {
	if st.Dropped != 0 {
		h.violatef("decision pipeline shed %d records despite a queue sized for the op budget", st.Dropped)
	}
	if st.FailedRecords != 0 {
		h.violatef("decision sink lost %d records (%d failed exports, last: %s)",
			st.FailedRecords, st.ExportFailures, st.LastError)
	}
	f, err := os.Open(h.decPath)
	if err != nil {
		h.violatef("decision log: %v", err)
		return 0
	}
	defer f.Close()

	acceptedAt := make(map[int]string) // index → candidate, from accept records
	acceptedX := make(map[string]int)  // candidate → index
	replayedAt := make(map[int]bool)
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		n++
		var d declog.Decision
		if err := json.Unmarshal(line, &d); err != nil {
			h.violatef("decision log record %d: %v", n, err)
			continue
		}
		if d.Kind != declog.KindSubmit {
			continue
		}
		switch d.Decision {
		case declog.Accepted:
			x := d.Valuation["x"]
			if d.Index < 0 || d.Index >= len(post.Events) {
				h.violatef("phantom accepted record: index %d (candidate %s) beyond the final recovered run (%d events)",
					d.Index, x, len(post.Events))
				continue
			}
			if ev := post.Events[d.Index]; ev.Rule != d.Rule || ev.Valuation["x"] != x {
				h.violatef("accepted record diverges from the final run at index %d: logged %s(%s), run holds %s(%s)",
					d.Index, d.Rule, x, ev.Rule, ev.Valuation["x"])
				continue
			}
			if prev, dup := acceptedAt[d.Index]; dup {
				h.violatef("index %d accepted twice in the decision log (%s, then %s)", d.Index, prev, x)
			}
			acceptedAt[d.Index] = x
			acceptedX[x] = d.Index
		case declog.Replayed:
			if d.Index >= len(post.Events) {
				h.violatef("phantom replay record: index %d beyond the final recovered run (%d events)",
					d.Index, len(post.Events))
			} else if d.Index >= 0 {
				replayedAt[d.Index] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		h.violatef("decision log read: %v", err)
	}

	h.ackMu.Lock()
	defer h.ackMu.Unlock()
	for x, idx := range h.acked {
		if aidx, ok := acceptedX[x]; ok {
			if aidx != idx {
				h.violatef("acked candidate %s: the client saw index %d but the accept record says %d", x, idx, aidx)
			}
			continue
		}
		if replayedAt[idx] {
			continue
		}
		h.violatef("acked candidate %s (index %d) has neither an accepted nor a replayed decision record", x, idx)
	}
	return n
}
