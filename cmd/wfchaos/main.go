// Command wfchaos runs the seeded chaos soak from internal/chaos against the
// server wfserve runs: one Manager serves -runs workflow runs over real
// HTTP to a fleet of retrying clients (worker w drives run w mod N with
// run-namespaced candidates) while an orchestrator injects per-run WAL
// faults (failed appends, torn writes, failed group syncs, slow syncs),
// drops responses after the event applied, and hard-crashes the whole
// process image — truncating every run's unsynced WAL tail independently
// to simulate page-cache loss — then recovers the fleet and checks, on
// every run, the durability, idempotency, notification, checksum,
// reader-consistency, decision-log and cross-run-isolation invariants
// (polling readers must see a monotonic, prefix-consistent run throughout,
// and the decision stream must hold no phantom accepted record and no
// acked-but-unlogged submission).
//
// The soak is fully determined by -seed (and -runs): a CI failure is
// replayed locally with the values printed in the summary. The summary is
// written to stdout as JSON (CI uploads it as an artifact); the exit status
// is non-zero if any invariant was violated.
//
// Usage:
//
//	wfchaos [-seed 1] [-runs 1] [-ops 400] [-workers max(4,runs)]
//	        [-readers max(2,runs)] [-injections 200] [-crash-every 12]
//	        [-dir ""] [-timeout 5m] [-v]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"collabwf/internal/chaos"
)

func main() {
	seed := flag.Int64("seed", 1, "master seed; a soak is fully determined by it and -runs")
	runs := flag.Int("runs", 1, "workflow runs the Manager serves (the default run plus named siblings)")
	ops := flag.Int("ops", 400, "minimum successful-or-ambiguous submissions to drive")
	workers := flag.Int("workers", 0, "concurrent retrying clients, worker w on run w mod -runs (0: max(4, runs))")
	readers := flag.Int("readers", 0, "polling readers asserting prefix-consistent reads (0: max(2, runs); negative disables)")
	injections := flag.Int("injections", 200, "minimum fault injections before stopping")
	crashEvery := flag.Int("crash-every", 12, "expected injections per crash/recover cycle")
	dir := flag.String("dir", "", "data directory (kept after the soak); empty means a temp dir, removed on success")
	timeout := flag.Duration("timeout", 5*time.Minute, "abort the soak after this long")
	verbose := flag.Bool("v", false, "log recoveries to stderr")
	flag.Parse()

	var logger *slog.Logger
	if *verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug}))
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	sum, err := chaos.Run(ctx, chaos.Config{
		Seed:        *seed,
		Runs:        *runs,
		Ops:         *ops,
		Workers:     *workers,
		Readers:     *readers,
		Injections:  *injections,
		CrashEveryN: *crashEvery,
		Dir:         *dir,
		Logger:      logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfchaos: %v\n", err)
		os.Exit(1)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		fmt.Fprintf(os.Stderr, "wfchaos: encoding summary: %v\n", err)
		os.Exit(1)
	}
	if len(sum.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "wfchaos: %d invariant violation(s) — replay with -seed %d -runs %d\n",
			len(sum.Violations), sum.Seed, sum.Runs)
		os.Exit(2)
	}
}
