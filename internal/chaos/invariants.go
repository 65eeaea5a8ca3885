package chaos

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"collabwf/internal/client"
	"collabwf/internal/declog"
	"collabwf/internal/server"
	"collabwf/internal/trace"
)

// The invariant checkers are pure: they take what the harness observed and
// return one message per violation, so each can be exercised on hand-built
// traces and records.

// checkRecovery checks invariants 1–4 and 7 for one run across one
// crash/recover cycle: pre is the run's released trace at crash time, post
// its recovered trace, acked its acknowledged candidates (candidate →
// index), notified the indices its in-process listener observed, and corrupt
// the number of records recovery reported corrupt.
func checkRecovery(run string, pre, post *trace.Trace, acked map[string]int, notified []int, corrupt int) []string {
	var vs []string
	bad := func(format string, args ...any) {
		vs = append(vs, "run "+run+": "+fmt.Sprintf(format, args...))
	}

	// (1) Durable-prefix-exact replay: the pre-crash released prefix is a
	// prefix of the recovered run, event for event. (The recovered run may
	// be LONGER: events durable or tail-surviving whose submitters never
	// saw the ack.)
	if len(post.Events) < len(pre.Events) {
		bad("recovered run (%d events) shorter than the released pre-crash prefix (%d)",
			len(post.Events), len(pre.Events))
	}
	for i := 0; i < len(pre.Events) && i < len(post.Events); i++ {
		a, b := pre.Events[i], post.Events[i]
		if a.Rule != b.Rule || a.Valuation["x"] != b.Valuation["x"] {
			bad("event %d diverged across recovery: %s(%v) → %s(%v)",
				i, a.Rule, a.Valuation, b.Rule, b.Valuation)
		}
	}

	// (2) No double-apply: every candidate appears at most once, and every
	// acknowledged candidate exactly once. (7) Each belongs to this run.
	counts := make(map[string]int, len(post.Events))
	for i, ev := range post.Events {
		x := ev.Valuation["x"]
		counts[x]++
		if owner, _, _ := strings.Cut(x, ":"); owner != run {
			bad("cross-run leakage: event %d holds candidate %q (owner %s)", i, x, owner)
		}
	}
	for x, n := range counts {
		if n > 1 {
			bad("candidate %s applied %d times (retry double-apply)", x, n)
		}
	}
	for x, idx := range acked {
		if counts[x] != 1 {
			bad("acked candidate %s (index %d) appears %d times in the recovered run", x, idx, counts[x])
		}
	}

	// (3) No transition for a rolled-back event: every index the listener
	// observed is inside the recovered run (crashes never cut below the
	// durable = released prefix).
	for _, idx := range notified {
		if idx >= len(post.Events) {
			bad("transition observed at index %d but the recovered run has %d events",
				idx, len(post.Events))
		}
	}

	// (4) Checksums clean.
	if corrupt != 0 {
		bad("recovery dropped %d corrupt records from an uncorrupted log", corrupt)
	}
	return vs
}

// readerLog records what one polling reader observed across the whole
// soak — crash/recover cycles included — for the invariant-5 assertions:
// the released length a reader sees never shrinks, and an index, once
// observed with some (ω, rule, view, because) content, never changes.
type readerLog struct {
	run, peer string
	seen      map[int]client.Transition
	maxLen    int
}

// observe folds one successful poll into the log; a non-empty return is an
// invariant violation.
func (rl *readerLog) observe(ts []client.Transition, n int) string {
	if rl.seen == nil {
		rl.seen = make(map[int]client.Transition)
	}
	if n < rl.maxLen {
		return fmt.Sprintf("reader(%s/%s): released length went backwards: %d after %d",
			rl.run, rl.peer, n, rl.maxLen)
	}
	rl.maxLen = n
	for _, t := range ts {
		prev, ok := rl.seen[t.Index]
		if !ok {
			rl.seen[t.Index] = t
			continue
		}
		if !sameTransition(prev, t) {
			return fmt.Sprintf("reader(%s/%s): index %d changed under the reader:\n was: %+v\n now: %+v",
				rl.run, rl.peer, t.Index, prev, t)
		}
	}
	return ""
}

// verify closes invariant 5: every (index, content) the reader observed —
// across every generation — must agree with the final recovered run (its
// transitions and released length), and the reader may not have seen past
// that length.
func (rl *readerLog) verify(final []server.Notification, n int) []string {
	var vs []string
	if rl.maxLen > n {
		vs = append(vs, fmt.Sprintf("reader(%s/%s) observed released length %d but the final recovered run has %d",
			rl.run, rl.peer, rl.maxLen, n))
	}
	byIndex := make(map[int]client.Transition, len(final))
	for _, t := range final {
		byIndex[t.Index] = client.Transition(t)
	}
	for idx, saw := range rl.seen {
		f, ok := byIndex[idx]
		if !ok {
			vs = append(vs, fmt.Sprintf("reader(%s/%s) observed index %d, absent from the final recovered run",
				rl.run, rl.peer, idx))
		} else if !sameTransition(f, saw) {
			vs = append(vs, fmt.Sprintf("reader(%s/%s) index %d diverges from the final recovered run:\n saw:   %+v\n final: %+v",
				rl.run, rl.peer, idx, saw, f))
		}
	}
	return vs
}

// sameTransition compares two transitions, treating nil and empty
// because-lists as equal (the JSON round-trip drops empty ones).
func sameTransition(a, b client.Transition) bool {
	if a.Index != b.Index || a.Omega != b.Omega || a.Rule != b.Rule || a.View != b.View ||
		len(a.Because) != len(b.Because) {
		return false
	}
	for i := range a.Because {
		if a.Because[i] != b.Because[i] {
			return false
		}
	}
	return true
}

// readDecisions parses a JSONL decision stream.
func readDecisions(path string) ([]declog.Decision, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []declog.Decision
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var d declog.Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			return recs, fmt.Errorf("record %d: %w", len(recs)+1, err)
		}
		recs = append(recs, d)
	}
	return recs, sc.Err()
}

// checkDecisions checks invariant 6: the drained decision stream against
// every run's final trace (by run id) and the ack ledger (run → candidate
// → index). The stream is at-most-once by design, but under the harness's
// regime — queue sized for the op budget, a Flush at every crash (the
// drain a SIGTERM handler performs) — both directions are exact:
//
//   - no phantoms: accept records are emitted only after the event is
//     durable, and crashes only ever cut the WAL above the durable offset,
//     so every accepted record must name an (index, rule, valuation)
//     present in its run's final trace;
//   - no acked-but-unlogged: a client ack means either the original
//     submission emitted an accept record or a retry was answered from the
//     idempotency window and emitted a replay record, and neither may have
//     been shed.
func checkDecisions(recs []declog.Decision, final map[string]*trace.Trace, acked map[string]map[string]int) []string {
	type pos struct {
		run   string
		index int
	}
	var vs []string
	bad := func(format string, args ...any) { vs = append(vs, fmt.Sprintf(format, args...)) }
	acceptedAt := make(map[pos]string) // from accept records
	acceptedX := make(map[string]pos)  // candidate → accepted position
	replayed := make(map[pos]bool)
	for _, d := range recs {
		if d.Kind != declog.KindSubmit {
			continue
		}
		var events []trace.EventRecord
		if tr := final[d.Run]; tr != nil {
			events = tr.Events
		}
		at := pos{d.Run, d.Index}
		switch d.Decision {
		case declog.Accepted:
			x := d.Valuation["x"]
			if d.Index < 0 || d.Index >= len(events) {
				bad("run %s: phantom accepted record: index %d (candidate %s) beyond the final recovered run (%d events)",
					d.Run, d.Index, x, len(events))
				continue
			}
			if ev := events[d.Index]; ev.Rule != d.Rule || ev.Valuation["x"] != x {
				bad("run %s: accepted record diverges from the final run at index %d: logged %s(%s), run holds %s(%s)",
					d.Run, d.Index, d.Rule, x, ev.Rule, ev.Valuation["x"])
				continue
			}
			if prev, dup := acceptedAt[at]; dup {
				bad("run %s: index %d accepted twice in the decision log (%s, then %s)", d.Run, d.Index, prev, x)
			}
			acceptedAt[at] = x
			acceptedX[x] = at
		case declog.Replayed:
			if d.Index >= len(events) {
				bad("run %s: phantom replay record: index %d beyond the final recovered run (%d events)",
					d.Run, d.Index, len(events))
			} else if d.Index >= 0 {
				replayed[at] = true
			}
		}
	}
	for run, byX := range acked {
		for x, idx := range byX {
			at := pos{run, idx}
			if a, ok := acceptedX[x]; ok {
				if a != at {
					bad("run %s: acked candidate %s: the client saw index %d but the accept record says run %s index %d",
						run, x, idx, a.run, a.index)
				}
				continue
			}
			if !replayed[at] {
				bad("run %s: acked candidate %s (index %d) has neither an accepted nor a replayed decision record", run, x, idx)
			}
		}
	}
	return vs
}
