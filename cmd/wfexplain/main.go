// Command wfexplain drives a run of a workflow specification and explains
// it from one peer's perspective: it prints the structured runtime
// explanation (the minimal faithful scenario rendered as observed
// transitions with their causes) and compares explanation sizes.
//
// Usage:
//
//	wfexplain -spec workflow.wf -peer sue [-steps 20] [-seed 1] [-minimum]
//	          [-profile [-profile-top 15]]
//	          [-log-level warn] [-log-format auto|text|json]
//
// With -profile the run drive (or trace replay), the explanation, the
// greedy scenario and the -minimum scenario search execute under the
// rule-engine cost profiler, and a per-rule cost table
// (attempts, candidates, fires, evaluation and replay time, tuples
// scanned, per-phase attribution) closes the report.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"collabwf/internal/core"
	"collabwf/internal/engine"
	"collabwf/internal/obs"
	"collabwf/internal/parse"
	"collabwf/internal/prof"
	"collabwf/internal/program"
	"collabwf/internal/prov"
	"collabwf/internal/scenario"
	"collabwf/internal/schema"
	"collabwf/internal/trace"
)

func main() {
	specPath := flag.String("spec", "", "workflow specification file")
	peer := flag.String("peer", "", "peer to explain the run for")
	steps := flag.Int("steps", 20, "maximum number of events to fire")
	seed := flag.Int64("seed", 1, "random scheduler seed")
	minimum := flag.Bool("minimum", false, "also search the (NP-hard) minimum scenario")
	tracePath := flag.String("trace", "", "explain this recorded JSON trace instead of a random run")
	dotPath := flag.String("dot", "", "write the provenance graph (Graphviz DOT) to this file")
	event := flag.Int("event", -1, "explain this single event (chain of causes and dependents)")
	logFlags := obs.RegisterLogFlags(flag.CommandLine, "warn")
	profFlags := prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *specPath == "" || *peer == "" {
		fmt.Fprintln(os.Stderr, "wfexplain: -spec and -peer are required")
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
	logger.Debug("spec loaded", "workflow", spec.Name, "rules", len(spec.Program.Rules()), "peers", len(spec.Program.Peers()))
	p := schema.Peer(*peer)
	if !spec.Program.Schema.HasPeer(p) {
		fatal(fmt.Errorf("unknown peer %s", p))
	}
	// nil (flag off) keeps every hook uninstrumented. The run carries the
	// profiler scope, so everything derived from it — views, explanations,
	// scenario replays — counts its condition evaluations there.
	profiler := profFlags.New()
	var r *program.Run
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fatal(err)
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		// Replay the events onto a profiled run of the trace's initial
		// instance, so the replay is attributed like a live engine drive.
		r, err = (&trace.Trace{Workflow: tr.Workflow, Initial: tr.Initial}).Replay(spec.Program)
		if err != nil {
			fatal(err)
		}
		r.SetProfiler(profiler.Scope("engine"))
		if err := tr.ApplyTo(r); err != nil {
			fatal(err)
		}
		fmt.Printf("run of %s: %d events (from %s)\n", spec.Name, r.Len(), *tracePath)
	} else {
		r, err = engine.RandomRunProfiled(spec.Program, *steps, *seed, 8, profiler.Scope("engine"))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("run of %s: %d events (seed %d)\n", spec.Name, r.Len(), *seed)
	}

	ex := core.NewExplainer(r, p)
	fmt.Println()
	fmt.Print(ex.Report())

	minSeq := ex.MinimalScenario()
	greedy := scenario.Greedy(r, p)
	fmt.Printf("\nexplanation sizes: run %d, minimal faithful %d, greedy scenario %d\n",
		r.Len(), len(minSeq), len(greedy))
	fmt.Printf("minimal faithful scenario events: %v\n", minSeq)

	if *event >= 0 {
		if *event >= r.Len() {
			fatal(fmt.Errorf("event %d out of range (run has %d events)", *event, r.Len()))
		}
		g := prov.Build(r, p)
		fmt.Printf("\nevent #%d %s\n", *event, r.Event(*event))
		fmt.Printf("explanation (transitive causes): %v\n", g.Explanation(*event))
		fmt.Printf("direct requirements: %v\n", g.Direct(*event))
		fmt.Printf("directly enables: %v\n", g.Dependents(*event))
		fmt.Printf("peers involved: %v\n", g.PeersInvolved(*event))
	}

	if *dotPath != "" {
		g := prov.Build(r, p)
		if err := os.WriteFile(*dotPath, []byte(g.DOT()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("provenance graph written to %s\n", *dotPath)
	}

	if *minimum {
		start := time.Now()
		min, err := scenario.Minimum(r, p, scenario.Options{Profiler: profiler})
		logger.Debug("minimum scenario search done", "duration", time.Since(start), "err", err)
		if err != nil {
			fmt.Printf("minimum scenario search: %v\n", err)
		} else {
			fmt.Printf("minimum scenario: %v (length %d)\n", min, len(min))
		}
	}

	if profiler.Enabled() {
		fmt.Printf("\nrule-engine cost profile:\n%s", profiler.Snapshot().Table(profFlags.Top))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wfexplain:", err)
	os.Exit(1)
}
