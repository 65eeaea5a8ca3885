package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/design"
	"collabwf/internal/prof"
	"collabwf/internal/schema"
	"collabwf/internal/transparency"
	"collabwf/internal/workload"
)

// TestProfilerScriptedSession drives the guarded scripted session of
// TestGuardRejectsViolations under an installed profiler and checks that
// the /debug/rules ranking and the raw snapshot agree with what the session
// actually did.
func TestProfilerScriptedSession(t *testing.T) {
	staged, err := design.Staged(workload.Hiring(), "sue")
	if err != nil {
		t.Fatal(err)
	}
	profiler := prof.New()
	c := newCoordinator(t, "Staged", staged, DurabilityConfig{Guards: map[string]int{"sue": 2}, Profiler: profiler})
	mustSubmit := func(peer schema.Peer, rule string, bind map[string]data.Value) *SubmitResult {
		t.Helper()
		res, err := c.Submit(peer, rule, bind)
		if err != nil {
			t.Fatalf("%s: %v", rule, err)
		}
		return res
	}
	mustSubmit("hr", "stage_refresh_hr", nil)
	res := mustSubmit("hr", "clear", nil)
	cand := data.Value(strings.TrimSuffix(strings.TrimPrefix(res.Updates[0], "+Cleared("), ")"))
	mustSubmit("cfo", "stage_refresh_cfo", nil)
	mustSubmit("cfo", "cfo_ok", map[string]data.Value{"x": cand})
	mustSubmit("ceo", "approve", map[string]data.Value{"x": cand})
	if _, err := c.Submit("hr", "hire", map[string]data.Value{"x": cand}); err == nil {
		t.Fatal("over-budget hire must be rejected by the guard")
	}

	// A certification folds the decider searches into the same profiler
	// (the verdict itself is irrelevant here; small caps keep it quick).
	_ = c.Certify(context.Background(), "sue", 2,
		transparency.Options{Profiler: profiler, PoolFresh: 2, MaxTuplesPerRelation: 1})

	snap := profiler.Snapshot()
	// Six events were appended: five accepted plus the hire the guard
	// rolled back after appending — fires count appends, not survivors.
	if snap.Totals.Fires != 6 {
		t.Fatalf("fires = %d, want 6 (5 accepted + 1 rolled back)", snap.Totals.Fires)
	}
	if snap.Totals.Replays < 6 {
		t.Fatalf("replays = %d, want ≥ 6 (one ground re-check per append)", snap.Totals.Replays)
	}
	if snap.Totals.Attempts == 0 || snap.Totals.EvalNS == 0 {
		t.Fatalf("decider searches attributed no evaluation work: %+v", snap.Totals)
	}
	fires := map[string]int64{}
	for _, r := range snap.Rules {
		fires[r.Rule] = r.Fires
	}
	for _, rule := range []string{"stage_refresh_hr", "clear", "stage_refresh_cfo", "cfo_ok", "approve", "hire"} {
		if fires[rule] != 1 {
			t.Fatalf("rule %s fires = %d, want 1 (fires=%v)", rule, fires[rule], fires)
		}
	}
	// One guard check per submission, and exactly the hire violated.
	var sue *prof.GuardCost
	for i := range snap.Guards {
		if snap.Guards[i].Peer == "sue" {
			sue = &snap.Guards[i]
		}
	}
	if sue == nil || sue.Checks != 6 || sue.Violations != 1 {
		t.Fatalf("guard stats = %+v, want 6 checks / 1 violation for sue", snap.Guards)
	}
	phases := map[string]bool{}
	for _, ph := range snap.Phases {
		phases[ph.Phase] = true
	}
	if !phases["engine"] || !phases["decider.silent_runs"] {
		t.Fatalf("phases = %+v, want engine and decider.silent_runs", snap.Phases)
	}

	// /debug/rules must agree with the snapshot: same rule set, ranked,
	// fires adding up, ?top bounding without changing matched.
	h := prof.RulesHandler(profiler)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rules", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/rules status %d", rec.Code)
	}
	var listing struct {
		Enabled bool `json:"enabled"`
		Matched int  `json:"matched"`
		Totals  struct {
			Fires int64 `json:"fires"`
		} `json:"totals"`
		Rules []struct {
			Rule  string `json:"rule"`
			Fires int64  `json:"fires"`
			CumNS int64  `json:"cum_ns"`
		} `json:"rules"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatalf("/debug/rules not JSON: %v", err)
	}
	if !listing.Enabled || listing.Matched != len(snap.Rules) || listing.Totals.Fires != 6 {
		t.Fatalf("/debug/rules = %+v, snapshot has %d rules", listing, len(snap.Rules))
	}
	var sumFires int64
	for i, r := range listing.Rules {
		sumFires += r.Fires
		if i > 0 && r.CumNS > listing.Rules[i-1].CumNS {
			t.Fatalf("/debug/rules not ranked by cum_ns: %+v", listing.Rules)
		}
	}
	if sumFires != 6 {
		t.Fatalf("/debug/rules fires sum to %d, want 6", sumFires)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rules?top=2", nil))
	var bounded struct {
		Matched int               `json:"matched"`
		Rules   []json.RawMessage `json:"rules"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &bounded); err != nil {
		t.Fatal(err)
	}
	if bounded.Matched != len(snap.Rules) || len(bounded.Rules) != 2 {
		t.Fatalf("top=2 listing = matched %d, %d rules", bounded.Matched, len(bounded.Rules))
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rules?top=zero", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad top: status %d, want 400", rec.Code)
	}
}

// TestRecoveredProfiledRunCountsFirstRead: the profiler is attached before
// a recovered run publishes its first snapshot, so a read served before any
// submission is attributed to it.
func TestRecoveredProfiledRunCountsFirstRead(t *testing.T) {
	dir := t.TempDir()
	c := newCoordinator(t, "Hiring", workload.Hiring(), DurabilityConfig{Dir: dir})
	if _, err := c.Submit("hr", "clear", nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	p := prof.New()
	rc := newCoordinator(t, "Hiring", workload.Hiring(), DurabilityConfig{Dir: dir, Profiler: p})
	defer rc.Close()
	before := p.Snapshot().Cond.Total
	if _, err := rc.View("sue"); err != nil {
		t.Fatal(err)
	}
	if after := p.Snapshot().Cond.Total; after == before {
		t.Fatalf("a view of the recovered run counted no condition evaluations (total %d)", after)
	}
}

// TestCertifyProfileParam: /certify?profile=1 attaches a request-scoped
// cost snapshot to both verdicts; bad values are 400s. Chain(1) certifies
// quickly with the handler's default search options (the trace test's
// trick).
func TestCertifyProfileParam(t *testing.T) {
	prog, _, err := workload.Chain(1)
	if err != nil {
		t.Fatal(err)
	}
	c := New("Chain", prog)
	h := Handler(c)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/certify?peer=p&h=1&profile=1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("certify status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Certified bool           `json:"certified"`
		Profile   *prof.Snapshot `json:"profile"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Certified || out.Profile == nil || !out.Profile.Enabled {
		t.Fatalf("profiled certify = %+v", out)
	}
	if out.Profile.Totals.Attempts == 0 {
		t.Fatalf("profiled certify attributed no attempts: %+v", out.Profile.Totals)
	}

	// The error verdict carries the profile too (unknown peer fails fast).
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/certify?peer=nobody&h=1&profile=1", nil))
	if rec.Code != http.StatusConflict {
		t.Fatalf("unknown-peer status %d, want 409", rec.Code)
	}
	var failed struct {
		Error   string         `json:"error"`
		Profile *prof.Snapshot `json:"profile"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &failed); err != nil {
		t.Fatal(err)
	}
	if failed.Error == "" || failed.Profile == nil || !failed.Profile.Enabled {
		t.Fatalf("profiled 409 = %+v", failed)
	}

	// Without the parameter no profile is attached.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/certify?peer=p&h=1", nil))
	var plain map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &plain); err != nil {
		t.Fatal(err)
	}
	if _, ok := plain["profile"]; ok {
		t.Fatalf("unprofiled certify leaked a profile: %v", plain)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/certify?peer=p&h=1&profile=yes", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad profile param: status %d, want 400", rec.Code)
	}
}
