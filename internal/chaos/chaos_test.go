package chaos

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"collabwf/internal/client"
	"collabwf/internal/declog"
	"collabwf/internal/server"
	"collabwf/internal/trace"
)

// TestChaosQuick is the CI-sized seeded soak, once on a single run and once
// on a four-run fleet: a fixed seed, a bounded op and injection budget, and
// every invariant checked on every run after every recovery. A failure
// prints the summary — rerun cmd/wfchaos with the same seed and -runs to
// replay it exactly.
func TestChaosQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	for _, runs := range []int{1, 4} {
		t.Run(fmt.Sprintf("runs=%d", runs), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			sum, err := Run(ctx, Config{
				Seed:       42,
				Runs:       runs,
				Ops:        200,
				Injections: 60,
			})
			if err != nil {
				t.Fatal(err)
			}
			if ctx.Err() != nil {
				t.Error("soak hit its timeout before finishing its op and injection budget")
			}
			t.Logf("chaos summary: runs=%d ops=%d acked=%d ambiguous=%d retries=%d injections=%d faults=%v recoveries=%d decisions=%d events=%v",
				sum.Runs, sum.Ops, sum.Acked, sum.Ambiguous, sum.Retries, sum.Injections, sum.Faults,
				sum.Recoveries, sum.Decisions, sum.EventsPerRun)
			for _, v := range sum.Violations {
				t.Errorf("invariant violated: %s", v)
			}
			if sum.Injections < 60 {
				t.Errorf("only %d injections fired, want ≥ 60", sum.Injections)
			}
			for _, kind := range []string{FaultFailAppend, FaultTornWrite, FaultFailedSync,
				FaultSlowSync, FaultDropResponse, FaultCrashRecover} {
				if sum.Faults[kind] == 0 {
					t.Errorf("fault type %s never fired", kind)
				}
			}
			if sum.Recoveries < 2 {
				t.Errorf("only %d recoveries, want ≥ 2", sum.Recoveries)
			}
			if sum.Acked == 0 {
				t.Error("no operation was ever acknowledged — the harness made no progress")
			}
			for _, id := range fleetRunIDs(runs) {
				if sum.EventsPerRun[id] == 0 {
					t.Errorf("run %s ended the soak with no events", id)
				}
			}
			// Invariant 6 ran for real: the stream must hold at least one
			// decision per acknowledged submission plus one recovery record
			// per run per generation.
			if sum.Decisions < sum.Acked+sum.Recoveries*runs {
				t.Errorf("decision stream has %d records for %d acks and %d recoveries of %d runs",
					sum.Decisions, sum.Acked, sum.Recoveries, runs)
			}
			if sum.DecisionsDropped != 0 {
				t.Errorf("decision pipeline shed %d records", sum.DecisionsDropped)
			}
			if runs > 1 && sum.Retries == 0 {
				t.Error("no client ever retried — the faults never reached the fleet's traffic")
			}
		})
	}
}

// clears builds a trace of clear events, one per candidate.
func clears(xs ...string) *trace.Trace {
	tr := &trace.Trace{}
	for _, x := range xs {
		tr.Events = append(tr.Events, trace.EventRecord{Rule: "clear", Valuation: map[string]string{"x": x}})
	}
	return tr
}

// wantViolation fails unless some violation in vs contains every fragment.
func wantViolation(t *testing.T, vs []string, fragments ...string) {
	t.Helper()
	for _, v := range vs {
		ok := true
		for _, f := range fragments {
			ok = ok && strings.Contains(v, f)
		}
		if ok {
			return
		}
	}
	t.Errorf("no violation mentions %q; got %q", fragments, vs)
}

func TestCheckRecovery(t *testing.T) {
	pre := clears("a:1", "a:2")
	if vs := checkRecovery("a", pre, clears("a:1", "a:2", "a:3"),
		map[string]int{"a:1": 0, "a:3": 2}, []int{0, 1, 2}, 0); len(vs) != 0 {
		t.Fatalf("clean recovery reported %q", vs)
	}
	cases := []struct {
		name      string
		post      *trace.Trace
		acked     map[string]int
		notified  []int
		corrupt   int
		fragments []string
	}{
		{"double apply", clears("a:1", "a:2", "a:2"), nil, nil, 0,
			[]string{"run a:", "candidate a:2 applied 2 times"}},
		{"acked twice", clears("a:1", "a:2", "a:1"), map[string]int{"a:1": 0}, nil, 0,
			[]string{"acked candidate a:1", "appears 2 times"}},
		{"acked lost", clears("a:1", "a:2"), map[string]int{"a:3": 2}, nil, 0,
			[]string{"acked candidate a:3", "appears 0 times"}},
		{"cross run", clears("a:1", "a:2", "b:1"), nil, nil, 0,
			[]string{"cross-run leakage", `"b:1"`, "owner b"}},
		{"shorter", clears("a:1"), nil, nil, 0,
			[]string{"recovered run (1 events) shorter than the released pre-crash prefix (2)"}},
		{"diverged", clears("a:1", "a:9"), nil, nil, 0,
			[]string{"event 1 diverged across recovery"}},
		{"notified past end", clears("a:1", "a:2"), nil, []int{0, 2}, 0,
			[]string{"notification delivered for index 2", "has 2 events"}},
		{"corrupt", clears("a:1", "a:2"), nil, nil, 3,
			[]string{"dropped 3 corrupt records"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantViolation(t, checkRecovery("a", pre, c.post, c.acked, c.notified, c.corrupt), c.fragments...)
		})
	}
}

func TestReaderLog(t *testing.T) {
	tr := func(i int, view string) client.Transition {
		return client.Transition{Index: i, Rule: "clear", View: view}
	}
	rl := &readerLog{run: "a", peer: "hr"}
	if msg := rl.observe([]client.Transition{tr(0, "v0"), tr(1, "v1")}, 2); msg != "" {
		t.Fatal(msg)
	}
	// A nil and an empty because-list are the same transition.
	if msg := rl.observe([]client.Transition{tr(0, "v0"), {Index: 1, Rule: "clear", View: "v1", Because: []int{}}}, 2); msg != "" {
		t.Fatal(msg)
	}
	if msg := rl.observe(nil, 1); !strings.Contains(msg, "released length went backwards: 1 after 2") {
		t.Errorf("shrinking length: got %q", msg)
	}
	if msg := rl.observe([]client.Transition{tr(0, "v0"), tr(1, "mutated")}, 2); !strings.Contains(msg, "index 1 changed under the reader") {
		t.Errorf("mutated index: got %q", msg)
	}

	final := []server.Notification{{Index: 0, Rule: "clear", View: "v0"}, {Index: 1, Rule: "clear", View: "v1"}}
	if vs := rl.verify(final, 2); len(vs) != 0 {
		t.Fatalf("consistent reader reported %q", vs)
	}
	wantViolation(t, rl.verify(final[:1], 1), "observed released length 2 but the final recovered run has 1")
	wantViolation(t, rl.verify(final[:1], 1), "observed index 1, absent from the final recovered run")
	wantViolation(t, rl.verify([]server.Notification{final[0], {Index: 1, Rule: "clear", View: "other"}}, 2),
		"index 1 diverges from the final recovered run")
}

func TestCheckDecisions(t *testing.T) {
	final := map[string]*trace.Trace{"a": clears("a:1", "a:2"), "b": clears("b:1")}
	accept := func(run string, idx int, x string) declog.Decision {
		return declog.Decision{Run: run, Kind: declog.KindSubmit, Decision: declog.Accepted,
			Rule: "clear", Valuation: map[string]string{"x": x}, Index: idx}
	}
	replay := func(run string, idx int) declog.Decision {
		return declog.Decision{Run: run, Kind: declog.KindSubmit, Decision: declog.Replayed, Index: idx}
	}
	clean := []declog.Decision{
		{Run: "a", Kind: declog.KindRecover, Decision: declog.Recovered, Index: -1},
		accept("a", 0, "a:1"), accept("b", 0, "b:1"), accept("a", 1, "a:2"), replay("a", 1),
	}
	acked := map[string]map[string]int{"a": {"a:1": 0, "a:2": 1}, "b": {"b:1": 0}}
	if vs := checkDecisions(clean, final, acked); len(vs) != 0 {
		t.Fatalf("clean stream reported %q", vs)
	}
	// Acked only through an idempotent replay record is fine too.
	if vs := checkDecisions([]declog.Decision{accept("a", 0, "a:1"), accept("b", 0, "b:1"), replay("a", 1)},
		final, acked); len(vs) != 0 {
		t.Fatalf("replay-acked stream reported %q", vs)
	}

	cases := []struct {
		name      string
		recs      []declog.Decision
		fragments []string
	}{
		{"phantom past the end", append(clean, accept("a", 2, "a:3")),
			[]string{"run a: phantom accepted record: index 2"}},
		{"phantom in another run", append(clean, accept("b", 1, "a:2")),
			[]string{"run b: phantom accepted record: index 1"}},
		{"divergent accept", append(clean[:2:2], accept("b", 0, "b:9"), accept("a", 1, "a:2")),
			[]string{"run b: accepted record diverges", "logged clear(b:9)"}},
		{"phantom replay", append(clean, replay("b", 5)),
			[]string{"run b: phantom replay record: index 5"}},
		{"acked but unlogged", []declog.Decision{accept("a", 0, "a:1"), accept("b", 0, "b:1")},
			[]string{"run a: acked candidate a:2 (index 1) has neither an accepted nor a replayed decision record"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantViolation(t, checkDecisions(c.recs, final, acked), c.fragments...)
		})
	}
	// The ack says one index, the accept record another.
	wantViolation(t, checkDecisions(clean, final, map[string]map[string]int{"a": {"a:2": 0}}),
		"run a: acked candidate a:2: the client saw index 0 but the accept record says run a index 1")
}
