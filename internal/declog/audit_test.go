package declog

import (
	"bytes"
	"strings"
	"testing"

	"collabwf/internal/core"
	"collabwf/internal/data"
	"collabwf/internal/engine"
	"collabwf/internal/program"
	"collabwf/internal/trace"
	"collabwf/internal/transparency"
	"collabwf/internal/workload"
)

// hiringLog drives the Hiring workflow locally and renders the decision log
// a faithful coordinator would have produced for it: one guard install, the
// accepted events of a clear→cfo_ok→approve→hire round, one applicability
// rejection, one idempotent replay and one explain record with the true
// digest. Returns the records and the run they describe.
func hiringLog(t *testing.T) ([]Decision, *program.Run) {
	t.Helper()
	p := workload.Hiring()
	run := program.NewRun(p)
	var recs []Decision
	recs = append(recs,
		Decision{Seq: 1, Kind: KindRecover, Decision: Recovered, Index: -1},
		Decision{Seq: 2, Kind: KindGuard, Decision: Installed, Peer: "sue", H: 3, Index: -1},
	)
	fire := func(rule string, bindings map[string]data.Value) {
		t.Helper()
		idx := run.Len()
		e, err := run.FireRule(rule, bindings)
		if err != nil {
			t.Fatalf("firing %s: %v", rule, err)
		}
		rec := trace.EncodeEvent(e)
		recs = append(recs, Decision{Seq: uint64(len(recs) + 1), Kind: KindSubmit,
			Decision: Accepted, Peer: string(e.Rule.Peer), Rule: rule,
			Valuation: rec.Valuation, Index: idx, RunLen: idx})
	}
	fire("clear", nil)
	cand := run.Event(0).Updates()[0].Key
	// An applicability rejection decided against the 1-event prefix: approve
	// needs the CFO's ok first.
	recs = append(recs, Decision{Seq: uint64(len(recs) + 1), Kind: KindSubmit,
		Decision: Rejected, Reason: "not_applicable", Peer: "ceo", Rule: "approve",
		Valuation: map[string]string{"x": string(cand)}, Index: -1, RunLen: run.Len()})
	fire("cfo_ok", map[string]data.Value{"x": cand})
	fire("approve", map[string]data.Value{"x": cand})
	fire("hire", map[string]data.Value{"x": cand})
	// A client retry answered from the idempotency window.
	recs = append(recs, Decision{Seq: uint64(len(recs) + 1), Kind: KindSubmit,
		Decision: Replayed, Peer: "hr", Rule: "hire", Index: 3, RunLen: 3, IdemKey: "k1"})
	// An explanation served over the full prefix, with its true digest.
	rep := core.NewExplainerAt(run, "sue", run.Len()).Report()
	recs = append(recs, Decision{Seq: uint64(len(recs) + 1), Kind: KindExplain,
		Decision: Served, Peer: "sue", Index: -1, RunLen: run.Len(),
		Digest: Digest(rep.String())})
	return recs, run
}

func encodeLog(t *testing.T, recs []Decision) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestAuditFaithfulLog(t *testing.T) {
	recs, run := hiringLog(t)
	rep, err := Audit(workload.Hiring(), encodeLog(t, recs), AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("faithful log flagged: %v", rep.Mismatches)
	}
	if rep.RunLen != run.Len() || rep.Accepted != 4 || rep.Replayed != 1 ||
		rep.Rejections != 1 || rep.Guards != 1 || rep.Explains != 1 || rep.Recovers != 1 {
		t.Fatalf("report=%+v", rep)
	}
	if rep.RecheckedRejections != 1 || rep.RecheckedExplains != 1 {
		t.Fatalf("rechecks not performed: %+v", rep)
	}
}

func TestAuditDetectsTamperedAcceptance(t *testing.T) {
	recs, _ := hiringLog(t)
	for i := range recs {
		// Claim the CFO's ok was for a candidate that was never cleared.
		if recs[i].Rule == "cfo_ok" {
			recs[i].Valuation = map[string]string{"x": "ghost"}
		}
	}
	rep, err := Audit(workload.Hiring(), encodeLog(t, recs), AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("tampered acceptance not flagged")
	}
	// The run cannot replay past the broken record, so later accepted
	// records must be reported as a gap, not silently dropped.
	if rep.RunLen != 1 {
		t.Fatalf("replay advanced past the tampered record: run_len=%d", rep.RunLen)
	}
}

func TestAuditDetectsFalseRejection(t *testing.T) {
	recs, _ := hiringLog(t)
	cand := ""
	for _, r := range recs {
		if r.Rule == "cfo_ok" && r.Decision == Accepted {
			cand = r.Valuation["x"]
		}
	}
	// Claim hire was "not applicable" at the full prefix — it fires there.
	recs = append(recs, Decision{Seq: uint64(len(recs) + 1), Kind: KindSubmit,
		Decision: Rejected, Reason: "not_applicable", Peer: "hr", Rule: "hire",
		Valuation: map[string]string{"x": cand}, Index: -1, RunLen: 4})
	rep, err := Audit(workload.Hiring(), encodeLog(t, recs), AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("false rejection not flagged")
	}
}

// guardedHiringLog renders the log of a raw hiring run under a guard for
// sue with budget h=2 whose hire (step-provenance 3) was accepted anyway,
// followed by three clean clears: one guard-violating accepted record.
func guardedHiringLog(t *testing.T) []Decision {
	t.Helper()
	run := program.NewRun(workload.Hiring())
	recs := []Decision{{Seq: 1, Kind: KindGuard, Decision: Installed, Peer: "sue", H: 2, Index: -1}}
	fire := func(rule string, bindings map[string]data.Value) {
		t.Helper()
		idx := run.Len()
		e, err := run.FireRule(rule, bindings)
		if err != nil {
			t.Fatalf("firing %s: %v", rule, err)
		}
		recs = append(recs, Decision{Seq: uint64(len(recs) + 1), Kind: KindSubmit,
			Decision: Accepted, Peer: string(e.Rule.Peer), Rule: rule,
			Valuation: trace.EncodeEvent(e).Valuation, Index: idx, RunLen: idx})
	}
	fire("clear", nil)
	cand := map[string]data.Value{"x": run.Event(0).Updates()[0].Key}
	fire("cfo_ok", cand)
	fire("approve", cand)
	fire("hire", cand)
	for i := 0; i < 3; i++ {
		fire("clear", nil)
	}
	return recs
}

// One guard-violating accepted record is one mismatch: the events after it
// are judged on their own, and a false guard rejection decided after it is
// still caught.
func TestAuditGuardViolationReportedOnce(t *testing.T) {
	recs := guardedHiringLog(t)
	// A clean clear falsely rejected by the guard at the full prefix.
	recs = append(recs, Decision{Seq: uint64(len(recs) + 1), Kind: KindSubmit,
		Decision: Rejected, Reason: "guard", Guarded: "sue", Peer: "hr", Rule: "clear",
		Valuation: map[string]string{"x": "zed"}, Index: -1, RunLen: 7})
	rep, err := Audit(workload.Hiring(), encodeLog(t, recs), AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RunLen != 7 || rep.RecheckedRejections != 1 {
		t.Fatalf("report=%+v", rep)
	}
	var bad, falseRejection int
	for _, ms := range rep.Mismatches {
		switch {
		case strings.Contains(ms, "accepted event 3 violates the guard for sue"):
			bad++
		case strings.Contains(ms, "clear rejected by the guard for sue at length 7"):
			falseRejection++
		}
	}
	if bad != 1 || falseRejection != 1 || len(rep.Mismatches) != 2 {
		t.Fatalf("want one mismatch for the hire and one for the false rejection, got %q", rep.Mismatches)
	}
}

// A guard rejection must be reproduced by the guard of the logged peer.
func TestAuditGuardRejectionNamesPeer(t *testing.T) {
	recs := guardedHiringLog(t)[:4] // guard, clear, cfo_ok, approve
	recs = append(recs,
		Decision{Seq: uint64(len(recs) + 1), Kind: KindGuard, Decision: Installed, Peer: "ceo", H: 3, Index: -1},
		Decision{Seq: uint64(len(recs) + 2), Kind: KindSubmit, Decision: Rejected,
			Reason: "guard", Guarded: "sue", Peer: "hr", Rule: "hire",
			Valuation: recs[3].Valuation, Index: -1, RunLen: 3})
	rep, err := Audit(workload.Hiring(), encodeLog(t, recs), AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.RecheckedRejections != 1 {
		t.Fatalf("faithful guard rejection flagged: %+v", rep)
	}
	recs[len(recs)-1].Guarded = "ceo"
	rep, err = Audit(workload.Hiring(), encodeLog(t, recs), AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 1 || !strings.Contains(rep.Mismatches[0], "the guard for sue rejects it") {
		t.Fatalf("guard rejection blamed on the wrong peer not flagged: %q", rep.Mismatches)
	}
}

func TestAuditDetectsWrongExplainDigest(t *testing.T) {
	recs, _ := hiringLog(t)
	for i := range recs {
		if recs[i].Kind == KindExplain {
			recs[i].Digest = "0000000000000000"
		}
	}
	rep, err := Audit(workload.Hiring(), encodeLog(t, recs), AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("wrong explain digest not flagged")
	}
}

func TestAuditDetectsPhantomReplay(t *testing.T) {
	recs, _ := hiringLog(t)
	recs = append(recs, Decision{Seq: uint64(len(recs) + 1), Kind: KindSubmit,
		Decision: Replayed, Peer: "hr", Rule: "hire", Index: 40, RunLen: 40})
	rep, err := Audit(workload.Hiring(), encodeLog(t, recs), AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("replay beyond the run not flagged")
	}
}

func TestAuditStructuralRejectionChecks(t *testing.T) {
	p := workload.Hiring()
	recs := []Decision{
		// unknown_rule for a rule that exists → lie.
		{Seq: 1, Kind: KindSubmit, Decision: Rejected, Reason: "unknown_rule",
			Peer: "hr", Rule: "clear", Index: -1},
		// wrong_peer for the rule's true owner → lie.
		{Seq: 2, Kind: KindSubmit, Decision: Rejected, Reason: "wrong_peer",
			Peer: "hr", Rule: "clear", Index: -1},
	}
	rep, err := Audit(p, encodeLog(t, recs), AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 2 {
		t.Fatalf("structural lies not flagged: %v", rep.Mismatches)
	}
	// The honest versions pass.
	recs[0].Rule = "no_such_rule"
	recs[1].Peer = "sue"
	rep, err = Audit(p, encodeLog(t, recs), AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("honest structural rejections flagged: %v", rep.Mismatches)
	}
}

func TestAuditEmitOrderIndependence(t *testing.T) {
	// Group commit can emit a rejection decided at prefix 1 after the accept
	// of index 3 was queued. The audit keys on index/run_len, so shuffling
	// the record order must not change the verdict.
	recs, _ := hiringLog(t)
	for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
		recs[i], recs[j] = recs[j], recs[i]
	}
	rep, err := Audit(workload.Hiring(), encodeLog(t, recs), AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("reversed emit order flagged: %v", rep.Mismatches)
	}
	if rep.RunLen != 4 {
		t.Fatalf("run_len=%d", rep.RunLen)
	}
}

func TestAuditRecheckCertify(t *testing.T) {
	recs, _ := hiringLog(t)
	// Hiring is NOT transparent for sue (sue never sees the approval stage),
	// so a logged certified verdict is a lie the recheck catches.
	recs = append(recs, Decision{Seq: uint64(len(recs) + 1), Kind: KindCertify,
		Decision: Certified, Peer: "sue", H: 3, Index: -1})
	search := transparency.Options{PoolFresh: 2, MaxTuplesPerRelation: 1}
	rep, err := Audit(workload.Hiring(), encodeLog(t, recs),
		AuditOptions{RecheckCertify: true, Search: search})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() || rep.RecheckedCertifies != 1 {
		t.Fatalf("false certify verdict not flagged: %+v", rep)
	}
	// The true verdict (violation) passes the recheck.
	recs[len(recs)-1].Decision = Violation
	recs[len(recs)-1].Reason = "transparent"
	rep, err = Audit(workload.Hiring(), encodeLog(t, recs),
		AuditOptions{RecheckCertify: true, Search: search})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("true certify verdict flagged: %v", rep.Mismatches)
	}
	// Without RecheckCertify the record is counted but not recomputed.
	rep, err = Audit(workload.Hiring(), encodeLog(t, recs), AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.RecheckedCertifies != 0 {
		t.Fatalf("certify recheck must be opt-in: %+v", rep)
	}
}

func TestAuditRejectsMalformedLog(t *testing.T) {
	if _, err := Audit(workload.Hiring(), strings.NewReader("{\"seq\":1}\nnot json\n"), AuditOptions{}); err == nil {
		t.Fatal("malformed log must error")
	}
}

func TestAuditMismatchBound(t *testing.T) {
	var recs []Decision
	for i := 0; i < 10; i++ {
		recs = append(recs, Decision{Seq: uint64(i + 1), Kind: "nonsense", Index: -1})
	}
	rep, err := Audit(workload.Hiring(), encodeLog(t, recs), AuditOptions{MaxMismatches: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 3 || rep.Suppressed != 7 {
		t.Fatalf("bound not applied: %d listed, %d suppressed", len(rep.Mismatches), rep.Suppressed)
	}
	if rep.Ok() {
		t.Fatal("suppressed mismatches must still fail the audit")
	}
}

// fleetLog interleaves two runs' faithful hiring logs record by record, the
// way a shared decision stream written by a run fleet would: every record
// stamped with its run id, seqs globally increasing across the stream.
func fleetLog(t *testing.T) []Decision {
	t.Helper()
	alpha, _ := hiringLog(t)
	beta, _ := hiringLog(t)
	var out []Decision
	for i := 0; i < len(alpha) || i < len(beta); i++ {
		if i < len(alpha) {
			d := alpha[i]
			d.Run = "alpha"
			out = append(out, d)
		}
		if i < len(beta) {
			d := beta[i]
			d.Run = "beta"
			out = append(out, d)
		}
	}
	for i := range out {
		out[i].Seq = uint64(i + 1)
	}
	return out
}

// TestAuditMultiRunLog: a fleet's interleaved decision stream partitions by
// run id and each run replays in isolation. The two runs here reuse the
// same candidate values — only per-run replay keeps both faithful; a replay
// that leaked one run's events into the other would trip the freshness
// check and flag the log.
func TestAuditMultiRunLog(t *testing.T) {
	recs := fleetLog(t)
	rep, err := Audit(workload.Hiring(), encodeLog(t, recs), AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("faithful fleet log flagged: %v", rep.Mismatches)
	}
	if len(rep.Runs) != 2 || rep.Runs["alpha"] != 4 || rep.Runs["beta"] != 4 {
		t.Fatalf("per-run lengths = %v, want alpha:4 beta:4", rep.Runs)
	}
	if rep.RunLen != 8 || rep.Accepted != 8 || rep.Guards != 2 || rep.Explains != 2 {
		t.Fatalf("fleet totals = %+v", rep)
	}
}

// TestAuditMultiRunAttributesMismatches: tampering with one run's record is
// reported against that run — prefixed with its id — and must not poison
// the sibling run's replay.
func TestAuditMultiRunAttributesMismatches(t *testing.T) {
	recs := fleetLog(t)
	for i := range recs {
		if recs[i].Run == "beta" && recs[i].Rule == "cfo_ok" && recs[i].Decision == Accepted {
			recs[i].Valuation = map[string]string{"x": "ghost"}
		}
	}
	rep, err := Audit(workload.Hiring(), encodeLog(t, recs), AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("tampered fleet log not flagged")
	}
	for _, ms := range rep.Mismatches {
		if !strings.Contains(ms, `run "beta"`) {
			t.Fatalf("mismatch not attributed to its run: %q", ms)
		}
	}
	// alpha replays to its full length; beta stalls at the broken record.
	if rep.Runs["alpha"] != 4 || rep.Runs["beta"] != 1 {
		t.Fatalf("per-run lengths = %v, want alpha:4 beta:1", rep.Runs)
	}
}

// TestAuditSingleRunLogStaysLegacy: a pre-fleet log (no run ids) audits as
// before — one anonymous run, no per-run breakdown in the report.
func TestAuditSingleRunLogStaysLegacy(t *testing.T) {
	recs, run := hiringLog(t)
	rep, err := Audit(workload.Hiring(), encodeLog(t, recs), AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.RunLen != run.Len() {
		t.Fatalf("legacy log flagged: %+v", rep)
	}
	if rep.Runs != nil {
		t.Fatalf("legacy log grew a runs breakdown: %v", rep.Runs)
	}
}

// randomExplainLog renders the decision log of a seeded random Hiring run
// of n events followed by k explain records for sue, served over prefixes
// spread across the second half of the run, each with its true digest.
func randomExplainLog(t *testing.T, n, k int) []byte {
	t.Helper()
	run, err := engine.RandomRun(workload.Hiring(), n, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Decision
	for i := 0; i < run.Len(); i++ {
		e := run.Event(i)
		recs = append(recs, Decision{Seq: uint64(len(recs) + 1), Kind: KindSubmit,
			Decision: Accepted, Peer: string(e.Rule.Peer), Rule: e.Rule.Name,
			Valuation: trace.EncodeEvent(e).Valuation, Index: i, RunLen: i})
	}
	for j := 0; j < k; j++ {
		at := run.Len() - j*run.Len()/(2*k)
		rep := core.NewExplainerAt(run, "sue", at).Report()
		recs = append(recs, Decision{Seq: uint64(len(recs) + 1), Kind: KindExplain,
			Decision: Served, Peer: "sue", Index: -1, RunLen: at, Digest: Digest(rep.String())})
	}
	return encodeLog(t, recs).Bytes()
}

// TestAuditExplainCostFlatInRunLength: the audit advances one explainer
// through the run for every explain record, so an extra record costs a
// report over its prefix, not a fresh lifecycle analysis of the prefix.
// Quadrupling the run length may at most double the allocations an extra
// record adds.
func TestAuditExplainCostFlatInRunLength(t *testing.T) {
	const extra = 8
	perRecord := func(n int) float64 {
		allocs := func(k int) float64 {
			raw := randomExplainLog(t, n, k)
			return testing.AllocsPerRun(2, func() {
				rep, err := Audit(workload.Hiring(), bytes.NewReader(raw), AuditOptions{})
				if err != nil || !rep.Ok() || rep.RecheckedExplains != k {
					t.Fatalf("n=%d k=%d: audit %+v, %v", n, k, rep, err)
				}
			})
		}
		return (allocs(1+extra) - allocs(1)) / extra
	}
	short, long := perRecord(300), perRecord(1200)
	t.Logf("allocations per extra explain record: %.0f at 300 events, %.0f at 1200", short, long)
	if long > 2*short {
		t.Fatalf("an extra explain record costs %.0f allocations at 1200 events, %.1f× the %.0f at 300: the audit re-analyses each prefix",
			long, long/short, short)
	}
}
