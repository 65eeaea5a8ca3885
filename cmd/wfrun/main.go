// Command wfrun loads a workflow specification, drives a run with the
// seeded random scheduler, and prints the run together with each peer's
// view of it.
//
// With -server the locally scheduled run is replayed against a remote
// coordinator (wfserve) through the resilient client: every submission
// carries an idempotency key and retries transparently on 429/503, so a
// flaky network or a mid-run server restart cannot double-apply an event.
// The views are then fetched from the server rather than computed locally.
//
// Usage:
//
// With -audit the run is not scheduled at all: the given decision-log JSONL
// file (wfserve -declog, see internal/declog) is replayed against the spec —
// accepted records rebuild the run, logged rejection/explanation verdicts
// are recomputed and compared — and wfrun exits non-zero on any divergence.
//
// Usage:
//
//	wfrun -spec workflow.wf [-steps 20] [-seed 1] [-peer sue]
//	      [-server http://127.0.0.1:8080]
//	      [-audit decisions.jsonl [-audit-certify]]
//	      [-profile [-profile-top 15]]
//	      [-log-level info] [-log-format auto|text|json]
//
// With -profile the run is driven under the rule-engine cost profiler and
// an EXPLAIN-ANALYZE-style per-rule cost table (attempts, candidate
// valuations, fires, evaluation time, tuples scanned) is printed after the
// views.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"collabwf/internal/client"
	"collabwf/internal/declog"
	"collabwf/internal/engine"
	"collabwf/internal/obs"
	"collabwf/internal/parse"
	"collabwf/internal/prof"
	"collabwf/internal/program"
	"collabwf/internal/trace"
	"collabwf/internal/view"

	"collabwf/internal/schema"
)

func main() {
	specPath := flag.String("spec", "", "workflow specification file")
	steps := flag.Int("steps", 20, "maximum number of events to fire")
	seed := flag.Int64("seed", 1, "random scheduler seed")
	peer := flag.String("peer", "", "print only this peer's view")
	out := flag.String("out", "", "write the run as a JSON trace to this file")
	serverURL := flag.String("server", "", "replay the run against this coordinator URL instead of locally")
	auditPath := flag.String("audit", "", "audit a decision-log JSONL file against the spec instead of running")
	auditCertify := flag.Bool("audit-certify", false, "with -audit, also recompute certification verdicts (runs the deciders)")
	logFlags := obs.RegisterLogFlags(flag.CommandLine, "warn")
	profFlags := prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "wfrun: -spec is required")
		flag.Usage()
		os.Exit(2)
	}
	logger, err := logFlags.NewLogger(os.Stderr)
	if err != nil {
		fatal(err)
	}
	src, err := os.ReadFile(*specPath)
	if err != nil {
		fatal(err)
	}
	spec, err := parse.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	if *auditPath != "" {
		os.Exit(auditDecisions(spec.Program, *auditPath, *auditCertify))
	}
	logger.Debug("spec loaded", "workflow", spec.Name, "rules", len(spec.Program.Rules()), "peers", len(spec.Program.Peers()))
	if err := spec.Program.Schema.CheckLossless(); err != nil {
		logger.Warn("schema is not lossless", "err", err)
	}
	// nil (flag off) keeps every hook on its uninstrumented path.
	profiler := profFlags.New()
	start := time.Now()
	r, err := engine.RandomRunProfiled(spec.Program, *steps, *seed, 8, profiler.Scope("engine"))
	if err != nil {
		fatal(err)
	}
	logger.Debug("run complete", "events", r.Len(), "seed", *seed, "duration", time.Since(start))
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := trace.FromRun(spec.Name, r).Write(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s\n", *out)
	}
	fmt.Printf("workflow %s: %d events (seed %d)\n\n", spec.Name, r.Len(), *seed)
	fmt.Println(r)
	fmt.Printf("\nfinal instance: %s\n\n", r.Current())

	peers := spec.Program.Peers()
	if *peer != "" {
		peers = []schema.Peer{schema.Peer(*peer)}
	}
	for _, p := range peers {
		if !spec.Program.Schema.HasPeer(p) {
			fatal(fmt.Errorf("unknown peer %s", p))
		}
		fmt.Printf("view at %s:\n  %s\n", p, view.Of(r, p))
	}

	if *serverURL != "" {
		if err := replayRemote(*serverURL, spec.Program, r, peers); err != nil {
			fatal(err)
		}
	}

	if profiler.Enabled() {
		fmt.Printf("\nrule-engine cost profile:\n%s", profiler.Snapshot().Table(profFlags.Top))
	}
}

// replayRemote submits the locally scheduled run to a remote coordinator
// through the retrying client, then prints the server's view per peer.
func replayRemote(base string, prog *program.Program, r *program.Run, peers []schema.Peer) error {
	cl := client.New(base, client.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := cl.Ready(ctx); err != nil {
		return fmt.Errorf("server not ready: %w", err)
	}
	start := time.Now()
	for i, rec := range trace.FromRun("", r).Events {
		rule := prog.Rule(rec.Rule)
		if rule == nil {
			return fmt.Errorf("run event %d fires unknown rule %s", i, rec.Rule)
		}
		res, err := cl.Submit(ctx, string(rule.Peer), rec.Rule, rec.Valuation)
		if err != nil {
			return fmt.Errorf("submitting event %d (%s): %w", i, rec.Rule, err)
		}
		if res.Index != i {
			return fmt.Errorf("server placed event %d at index %d — it already held a run", i, res.Index)
		}
	}
	fmt.Printf("\nreplayed %d events to %s in %s (%d retried attempts)\n",
		r.Len(), base, time.Since(start).Round(time.Millisecond), cl.Retries())
	for _, p := range peers {
		v, err := cl.View(ctx, string(p))
		if err != nil {
			return fmt.Errorf("fetching view at %s: %w", p, err)
		}
		fmt.Printf("server view at %s:\n  %s\n", p, v)
	}
	return nil
}

// auditDecisions replays a decision-log file against the specification: the
// accepted records rebuild the run, every rejection / explanation (and,
// with -audit-certify, certification) verdict is recomputed and compared
// with what the coordinator logged. Exit 0 means the log is faithful.
func auditDecisions(p *program.Program, path string, recheckCertify bool) int {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	rep, err := declog.Audit(p, f, declog.AuditOptions{RecheckCertify: recheckCertify})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("audited %s: %d records (%d accepted, %d replayed, %d rejections, %d guards, %d certify, %d explain, %d recover)\n",
		path, rep.Records, rep.Accepted, rep.Replayed, rep.Rejections, rep.Guards,
		rep.Certifies, rep.Explains, rep.Recovers)
	fmt.Printf("rebuilt run of %d events; rechecked %d rejections, %d explanations, %d certifications\n",
		rep.RunLen, rep.RecheckedRejections, rep.RecheckedExplains, rep.RecheckedCertifies)
	if rep.Ok() {
		fmt.Println("audit OK: every logged verdict matches its recomputation")
		return 0
	}
	for _, m := range rep.Mismatches {
		fmt.Fprintln(os.Stderr, "MISMATCH:", m)
	}
	if rep.Suppressed > 0 {
		fmt.Fprintf(os.Stderr, "… and %d more mismatches\n", rep.Suppressed)
	}
	return 1
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wfrun:", err)
	os.Exit(1)
}
