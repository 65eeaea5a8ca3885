package declog

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"collabwf/internal/core"
	"collabwf/internal/data"
	"collabwf/internal/design"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/trace"
)

// AuditOptions tunes Audit.
type AuditOptions struct {
	// RecheckCertify re-runs the deciders for every certify record — the
	// searches are expensive, so recomputation is opt-in.
	RecheckCertify bool
	// Search tunes the decider re-runs under RecheckCertify (pool size,
	// enumeration caps, parallelism). The zero value uses the deciders'
	// defaults — the same configuration /certify runs with.
	Search core.Options
	// MaxMismatches bounds the mismatch list (further ones are counted,
	// not stored); ≤ 0 means 50.
	MaxMismatches int
}

// AuditReport is the outcome of replaying a decision log.
type AuditReport struct {
	// Records is how many log records were parsed.
	Records int `json:"records"`
	// Per-kind counts.
	Accepted   int `json:"accepted"`
	Replayed   int `json:"replayed"`
	Rejections int `json:"rejections"`
	Guards     int `json:"guards"`
	Certifies  int `json:"certifies"`
	Explains   int `json:"explains"`
	Recovers   int `json:"recovers"`
	// RunLen is the length of the run reconstructed from the accepted
	// records — summed across runs when the log spans a fleet.
	RunLen int `json:"run_len"`
	// Runs maps run id → replayed length when the log was written by a run
	// fleet (records carry a non-empty Run field). Single-run logs omit it.
	Runs map[string]int `json:"runs,omitempty"`
	// RecheckedRejections / RecheckedExplains / RecheckedCertifies count the
	// verdicts actually recomputed (vs structurally checked only).
	RecheckedRejections int `json:"rechecked_rejections"`
	RecheckedExplains   int `json:"rechecked_explains"`
	RecheckedCertifies  int `json:"rechecked_certifies"`
	// Mismatches lists every divergence between a logged verdict and its
	// recomputation (bounded by MaxMismatches; Suppressed counts the rest).
	Mismatches []string `json:"mismatches,omitempty"`
	Suppressed int      `json:"suppressed_mismatches,omitempty"`
}

// Ok reports whether the audit found no mismatches.
func (r *AuditReport) Ok() bool { return len(r.Mismatches) == 0 && r.Suppressed == 0 }

// auditor carries the replay state.
type auditor struct {
	prog *program.Program
	opts AuditOptions
	rep  *AuditReport

	run   *program.Run
	guard *design.Guard
}

func (a *auditor) mismatch(format string, args ...any) {
	max := a.opts.MaxMismatches
	if max <= 0 {
		max = 50
	}
	if len(a.rep.Mismatches) >= max {
		a.rep.Suppressed++
		return
	}
	a.rep.Mismatches = append(a.rep.Mismatches, fmt.Sprintf(format, args...))
}

// Audit replays a decision log (JSON Lines, as written by the file, writer
// and HTTP sinks) against the program and cross-checks every recomputable
// verdict:
//
//   - the accepted records must form a contiguous, replayable run: every
//     event re-passes the full run conditions (body satisfaction,
//     applicability, freshness) and every installed guard — exactly the
//     discipline WAL recovery applies, so a tampered log is caught, not
//     trusted;
//   - guard and applicability rejections are re-fired against the run
//     prefix they were decided on (run_len) and must fail the same way;
//   - idempotent replays must point at a run event with the logged rule;
//   - explain records must carry the digest of the report recomputed at
//     their prefix length;
//   - certify records are recomputed under RecheckCertify.
//
// The decision log is at-most-once (drop-oldest under overload, batches
// lost on export failure), so Audit treats the log as a claim about what
// WAS decided, never as evidence of what was NOT: missing records past the
// contiguous accepted prefix are reported, extra recomputation-consistent
// records never are.
//
// A log written by a run fleet interleaves records of many independent
// runs (the Run field); Audit partitions by run id, replays each run's
// records in isolation — one run's events must never leak into another's
// replay — and merges the per-run reports, prefixing mismatches with the
// run they belong to.
func Audit(p *program.Program, r io.Reader, opts AuditOptions) (*AuditReport, error) {
	var all []Decision
	dec := json.NewDecoder(r)
	for {
		var d Decision
		if err := dec.Decode(&d); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("declog: parsing record %d: %w", len(all)+1, err)
		}
		all = append(all, d)
	}
	groups := make(map[string][]Decision)
	for _, d := range all {
		groups[d.Run] = append(groups[d.Run], d)
	}
	ids := make([]string, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	rep := &AuditReport{Records: len(all)}
	if len(ids) > 1 || (len(ids) == 1 && ids[0] != "") {
		rep.Runs = make(map[string]int, len(ids))
	}
	for _, id := range ids {
		sub := auditRun(p, groups[id], opts)
		mergeReports(rep, sub, id, opts)
	}
	return rep, nil
}

// mergeReports folds one run's report into the fleet report, attributing
// its mismatches to the run.
func mergeReports(rep, sub *AuditReport, id string, opts AuditOptions) {
	rep.Accepted += sub.Accepted
	rep.Replayed += sub.Replayed
	rep.Rejections += sub.Rejections
	rep.Guards += sub.Guards
	rep.Certifies += sub.Certifies
	rep.Explains += sub.Explains
	rep.Recovers += sub.Recovers
	rep.RunLen += sub.RunLen
	rep.RecheckedRejections += sub.RecheckedRejections
	rep.RecheckedExplains += sub.RecheckedExplains
	rep.RecheckedCertifies += sub.RecheckedCertifies
	rep.Suppressed += sub.Suppressed
	if rep.Runs != nil {
		rep.Runs[id] = sub.RunLen
	}
	max := opts.MaxMismatches
	if max <= 0 {
		max = 50
	}
	for _, ms := range sub.Mismatches {
		if id != "" {
			ms = fmt.Sprintf("run %q: %s", id, ms)
		}
		if len(rep.Mismatches) >= max {
			rep.Suppressed++
			continue
		}
		rep.Mismatches = append(rep.Mismatches, ms)
	}
}

// auditRun replays one run's records (see Audit).
func auditRun(p *program.Program, records []Decision, opts AuditOptions) *AuditReport {
	a := &auditor{
		prog: p,
		opts: opts,
		rep:  &AuditReport{},
		run:  program.NewRun(p),
	}

	// Pass 1: partition. Emit order is not run order under group
	// commit (a reject can enqueue while earlier accepts await their fsync),
	// so the replay is driven by run position — Index for accepted records,
	// RunLen for rejection rechecks — not by sequence number.
	guards := make(map[schema.Peer]int)
	var accepted = make(map[int]Decision)
	var rechecks, replays, certifies, explains []Decision
	for _, d := range records {
		switch d.Kind {
		case KindGuard:
			a.rep.Guards++
			peer := schema.Peer(d.Peer)
			if !p.Schema.HasPeer(peer) {
				a.mismatch("seq %d: guard installed for unknown peer %s", d.Seq, d.Peer)
				continue
			}
			if h, ok := guards[peer]; ok && h != d.H {
				a.mismatch("seq %d: guard for %s reinstalled with h=%d, was h=%d", d.Seq, d.Peer, d.H, h)
				continue
			}
			guards[peer] = d.H
		case KindSubmit:
			switch d.Decision {
			case Accepted:
				a.rep.Accepted++
				if prev, ok := accepted[d.Index]; ok {
					if prev.Rule != d.Rule || !sameValuation(prev.Valuation, d.Valuation) {
						a.mismatch("seq %d: conflicting accepted records for index %d (%s vs %s)",
							d.Seq, d.Index, prev.Rule, d.Rule)
					}
					continue
				}
				accepted[d.Index] = d
			case Replayed:
				a.rep.Replayed++
				replays = append(replays, d)
			case Rejected:
				a.rep.Rejections++
				switch d.Reason {
				case "guard", "not_applicable":
					rechecks = append(rechecks, d)
				case "unknown_rule":
					if p.Rule(d.Rule) != nil {
						a.mismatch("seq %d: rejected as unknown_rule but %s exists", d.Seq, d.Rule)
					}
				case "wrong_peer":
					if rl := p.Rule(d.Rule); rl != nil && string(rl.Peer) == d.Peer {
						a.mismatch("seq %d: rejected as wrong_peer but %s belongs to %s", d.Seq, d.Rule, d.Peer)
					}
				}
				// closed / wal rejections are operational, not recomputable.
			default:
				a.mismatch("seq %d: submit record with unknown decision %q", d.Seq, d.Decision)
			}
		case KindCertify:
			a.rep.Certifies++
			certifies = append(certifies, d)
		case KindExplain:
			a.rep.Explains++
			explains = append(explains, d)
		case KindRecover:
			a.rep.Recovers++
		default:
			a.mismatch("seq %d: unknown record kind %q", d.Seq, d.Kind)
		}
	}

	// Guards precede the run (the server enforces install-before-first-event).
	a.guard = design.NewGuard(a.run, guards)

	// Pass 2: replay accepted records in index order, re-firing rejection
	// rechecks against the exact prefix each was decided on.
	sort.Slice(rechecks, func(i, j int) bool {
		if rechecks[i].RunLen != rechecks[j].RunLen {
			return rechecks[i].RunLen < rechecks[j].RunLen
		}
		return rechecks[i].Seq < rechecks[j].Seq
	})
	next := 0
	for {
		for next < len(rechecks) && rechecks[next].RunLen <= a.run.Len() {
			a.recheckRejection(rechecks[next])
			next++
		}
		d, ok := accepted[a.run.Len()]
		if !ok {
			break
		}
		prevLen := a.run.Len()
		a.applyAccepted(d)
		if a.run.Len() == prevLen {
			break // the record is broken; the run cannot advance past it
		}
	}
	a.rep.RunLen = a.run.Len()
	if len(accepted) > a.run.Len() {
		a.mismatch("accepted records skip indices: %d records but contiguous replay stops at %d (first gap at index %d)",
			len(accepted), a.run.Len(), a.run.Len())
	}
	for ; next < len(rechecks); next++ {
		a.mismatch("seq %d: rejection decided at run length %d, beyond the replayable prefix %d",
			rechecks[next].Seq, rechecks[next].RunLen, a.run.Len())
	}

	// Pass 3: position-independent checks over the final run.
	for _, d := range replays {
		if d.Index < 0 || d.Index >= a.run.Len() {
			a.mismatch("seq %d: idempotent replay points at index %d outside the run (len %d)",
				d.Seq, d.Index, a.run.Len())
			continue
		}
		if d.Rule != "" && a.run.Event(d.Index).Rule.Name != d.Rule {
			a.mismatch("seq %d: idempotent replay of index %d logs rule %s, run has %s",
				d.Seq, d.Index, d.Rule, a.run.Event(d.Index).Rule.Name)
		}
	}
	for _, d := range explains {
		a.recheckExplain(d)
	}
	if opts.RecheckCertify {
		for _, d := range certifies {
			a.recheckCertify(d)
		}
	}
	return a.rep
}

// applyAccepted replays one accepted record: the event must re-apply
// cleanly and pass every guard, exactly as the coordinator accepted it. A
// guard-violating event is reported and still committed — it is in the
// run the log describes — so each later event is judged on its own.
func (a *auditor) applyAccepted(d Decision) {
	e, err := (trace.EventRecord{Rule: d.Rule, Valuation: d.Valuation}).Decode(a.prog)
	if err == nil {
		err = a.run.Append(e)
	}
	if err != nil {
		a.mismatch("seq %d: accepted event %d does not replay: %v", d.Seq, d.Index, err)
		return
	}
	if peer, reason, ok := a.guard.Check(); !ok {
		a.mismatch("seq %d: accepted event %d violates the guard for %s on replay: %s",
			d.Seq, d.Index, peer, reason)
	}
	a.guard.Commit()
}

// recheckRejection re-fires a guard or applicability rejection against the
// prefix it was decided on (== the current replay position) and confirms
// the same verdict — for a guard rejection, by the same guarded peer —
// then rolls the probe back.
func (a *auditor) recheckRejection(d Decision) {
	a.rep.RecheckedRejections++
	prev := a.run.Len()
	bindings := make(map[string]data.Value, len(d.Valuation))
	for k, v := range d.Valuation {
		bindings[k] = data.Value(v)
	}
	_, err := a.run.FireRule(d.Rule, bindings)
	switch d.Reason {
	case "not_applicable":
		if err == nil {
			a.mismatch("seq %d: %s rejected as not applicable at length %d, but it fires on replay",
				d.Seq, d.Rule, d.RunLen)
		}
	case "guard":
		if err != nil {
			a.mismatch("seq %d: guard-rejected %s does not even apply at length %d: %v",
				d.Seq, d.Rule, d.RunLen, err)
			break
		}
		peer, _, ok := a.guard.Check()
		if ok {
			a.mismatch("seq %d: %s rejected by the guard for %s at length %d, but the guard admits it on replay",
				d.Seq, d.Rule, d.Guarded, d.RunLen)
		} else if string(peer) != d.Guarded {
			a.mismatch("seq %d: %s rejected by the guard for %s at length %d, but on replay the guard for %s rejects it",
				d.Seq, d.Rule, d.Guarded, d.RunLen, peer)
		}
	}
	// Roll the probe back; the guard never committed it.
	if a.run.Len() > prev {
		a.run.Truncate(prev)
	}
}

// recheckExplain recomputes the explanation report at the record's prefix
// length and compares digests. The report depends only on the prefix, so
// the check is order-independent — emit order may interleave an explain
// before the accept records of the prefix it saw.
func (a *auditor) recheckExplain(d Decision) {
	if d.Decision != Served || d.Digest == "" {
		return
	}
	peer := schema.Peer(d.Peer)
	if !a.prog.Schema.HasPeer(peer) {
		a.mismatch("seq %d: explain served for unknown peer %s", d.Seq, d.Peer)
		return
	}
	if d.RunLen > a.run.Len() {
		a.mismatch("seq %d: explain for %s over prefix %d, beyond the replayable run (len %d)",
			d.Seq, d.Peer, d.RunLen, a.run.Len())
		return
	}
	a.rep.RecheckedExplains++
	got := Digest(core.NewExplainerAt(a.run, peer, d.RunLen).Report().String())
	if got != d.Digest {
		a.mismatch("seq %d: explain digest for %s at prefix %d is %s, recomputed %s",
			d.Seq, d.Peer, d.RunLen, d.Digest, got)
	}
}

// recheckCertify re-runs the deciders and compares the verdict.
func (a *auditor) recheckCertify(d Decision) {
	if d.Decision != Certified && d.Decision != Violation {
		return // errors and cancellations carry no verdict to confirm
	}
	peer := schema.Peer(d.Peer)
	if !a.prog.Schema.HasPeer(peer) {
		a.mismatch("seq %d: certify for unknown peer %s", d.Seq, d.Peer)
		return
	}
	a.rep.RecheckedCertifies++
	opts := a.opts.Search
	opts.Stats = nil
	ctx := context.Background()
	bv, err := core.CheckBoundedCtx(ctx, a.prog, peer, d.H, opts)
	if err != nil {
		a.mismatch("seq %d: recomputing boundedness for %s (h=%d): %v", d.Seq, d.Peer, d.H, err)
		return
	}
	violated := bv != nil
	if !violated {
		tv, err := core.CheckTransparentCtx(ctx, a.prog, peer, d.H, opts)
		if err != nil {
			a.mismatch("seq %d: recomputing transparency for %s (h=%d): %v", d.Seq, d.Peer, d.H, err)
			return
		}
		violated = tv != nil
	}
	if violated != (d.Decision == Violation) {
		a.mismatch("seq %d: certify verdict for %s (h=%d) logged %s, recomputed %v",
			d.Seq, d.Peer, d.H, d.Decision, map[bool]string{true: Violation, false: Certified}[violated])
	}
}

func sameValuation(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
