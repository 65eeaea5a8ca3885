package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/design"
	"collabwf/internal/obs"
	"collabwf/internal/prof"
	"collabwf/internal/schema"
	"collabwf/internal/transparency"
	"collabwf/internal/wal"
	"collabwf/internal/workload"
)

func newTestManager(t *testing.T, cfg ManagerConfig) *Manager {
	t.Helper()
	if cfg.Prog == nil {
		cfg.Prog = workload.Hiring()
	}
	if cfg.Workflow == "" {
		cfg.Workflow = "Hiring"
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func fleetPost(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec
}

// TestManagerLifecycleHTTP exercises the run lifecycle over HTTP: create,
// list, route, archive — with the legacy root paths aliased to the default
// run and the error statuses pinned down.
func TestManagerLifecycleHTTP(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	h := m.Handler()

	if rec := fleetPost(t, h, "/runs", `{"id":"alpha"}`); rec.Code != http.StatusCreated {
		t.Fatalf("create alpha: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := fleetPost(t, h, "/runs", `{"id":"alpha"}`); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate create: status %d, want 409", rec.Code)
	}
	if rec := fleetPost(t, h, "/runs", `{"id":"../escape"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid id: status %d, want 400", rec.Code)
	}
	if rec := fleetPost(t, h, "/runs", `{"id":"x","extra":true}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", rec.Code)
	}

	// Submissions route by run id; the legacy root path hits the default run.
	submit := func(path string) *httptest.ResponseRecorder {
		return fleetPost(t, h, path, `{"peer":"hr","rule":"clear","bindings":{"x":"sue"}}`)
	}
	if rec := submit("/runs/alpha/submit"); rec.Code != http.StatusOK {
		t.Fatalf("submit alpha: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := submit("/submit"); rec.Code != http.StatusOK {
		t.Fatalf("legacy submit: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := submit("/runs/ghost/submit"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown-run submit: status %d, want 404", rec.Code)
	}
	alpha, _ := m.Run("alpha")
	def := m.Default()
	if alpha.Len() != 1 || def.Len() != 1 {
		t.Fatalf("run lengths alpha=%d default=%d, want 1/1", alpha.Len(), def.Len())
	}

	// The list reports both runs sorted by id.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/runs", nil))
	var list RunsStatusz
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("GET /runs not JSON: %v", err)
	}
	if list.Active != 2 || list.Created != 2 || list.Events != 2 ||
		len(list.Runs) != 2 || list.Runs[0].ID != "alpha" || list.Runs[1].ID != DefaultRun {
		t.Fatalf("GET /runs = %+v", list)
	}

	// Archive: the run disappears from routing; the default run refuses.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/runs/alpha", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("archive alpha: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := submit("/runs/alpha/submit"); rec.Code != http.StatusNotFound {
		t.Fatalf("submit to archived run: status %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/runs/alpha", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("double archive: status %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/runs/"+DefaultRun, nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("archive default: status %d, want 400", rec.Code)
	}
}

// TestManagerDurableRecovery: a durable fleet recovers every non-archived
// run from its own directory — the default run from the data-dir root (a
// pre-fleet layout), named runs from DataDir/runs/<id> — and archived runs
// stay on disk but out of the fleet.
func TestManagerDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := ManagerConfig{
		DataDir:    dir,
		Durability: DurabilityConfig{Sync: wal.SyncAlways},
	}
	m := newTestManager(t, cfg)
	for _, id := range []string{"beta", "gamma"} {
		if err := m.CreateRun(id); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]int{DefaultRun: 3, "beta": 5, "gamma": 1}
	for id, n := range want {
		c, _ := m.Run(id)
		for i := 0; i < n; i++ {
			if _, err := c.Submit("hr", "clear", map[string]data.Value{"x": data.Value(fmt.Sprintf("%s-%d", id, i))}); err != nil {
				t.Fatalf("submit %s/%d: %v", id, i, err)
			}
		}
	}
	if err := m.ArchiveRun("gamma"); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, cfg)
	if _, ok := m2.Run("gamma"); ok {
		t.Fatal("archived run gamma resurrected by the recovery scan")
	}
	for _, id := range []string{DefaultRun, "beta"} {
		c, ok := m2.Run(id)
		if !ok {
			t.Fatalf("run %s not recovered", id)
		}
		if c.Len() != want[id] {
			t.Fatalf("run %s recovered %d events, want %d", id, c.Len(), want[id])
		}
		if got := c.RunID(); got != id {
			t.Fatalf("recovered run id %q, want %q", got, id)
		}
	}
	// The recovery scan counts recovered runs as created.
	st := m2.RunsStatus()
	if st.Active != 2 || st.Created != 2 {
		t.Fatalf("recovered fleet status = %+v", st)
	}
}

// TestIdempotencyScopedByRun is the regression test for the fleet bugfix:
// the dedupe map used to be keyed by the raw client key, so the same
// Idempotency-Key on two different runs collided — the second run's
// submission was answered with the first run's cached index instead of
// applying. Scoped by run id, each run deduplicates independently.
func TestIdempotencyScopedByRun(t *testing.T) {
	dir := t.TempDir()
	cfg := ManagerConfig{
		DataDir:    dir,
		Durability: DurabilityConfig{Sync: wal.SyncAlways},
	}
	m := newTestManager(t, cfg)
	if err := m.CreateRun("other"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	def := m.Default()
	other, _ := m.Run("other")

	const key = "shared-key-1"
	r1, err := def.SubmitIdemCtx(ctx, "hr", "clear", map[string]data.Value{"x": "a"}, key)
	if err != nil {
		t.Fatal(err)
	}
	// Same raw key, different run: must APPLY, not replay the default run's
	// cached result.
	r2, err := other.SubmitIdemCtx(ctx, "hr", "clear", map[string]data.Value{"x": "b"}, key)
	if err != nil {
		t.Fatal(err)
	}
	if other.Len() != 1 {
		t.Fatalf("second run did not apply: len=%d, want 1", other.Len())
	}
	if r2.Index != 0 {
		t.Fatalf("second run's index = %d, want 0 (its own run, not run %d of the default)", r2.Index, r1.Index)
	}
	// Same key, same run: deduped.
	r3, err := def.SubmitIdemCtx(ctx, "hr", "clear", map[string]data.Value{"x": "a"}, key)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Index != r1.Index || def.Len() != 1 {
		t.Fatalf("same-run retry: index=%d len=%d, want replay of index %d without applying",
			r3.Index, def.Len(), r1.Index)
	}

	// The scoping survives recovery: the window is rebuilt under the same
	// run-scoped keys, so a post-restart retry still replays per run.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := newTestManager(t, cfg)
	def2 := m2.Default()
	other2, _ := m2.Run("other")
	r4, err := def2.SubmitIdemCtx(ctx, "hr", "clear", map[string]data.Value{"x": "a"}, key)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Index != r1.Index || def2.Len() != 1 {
		t.Fatalf("default-run retry after recovery: index=%d len=%d, want replay of index %d",
			r4.Index, def2.Len(), r1.Index)
	}
	r5, err := other2.SubmitIdemCtx(ctx, "hr", "clear", map[string]data.Value{"x": "b"}, key)
	if err != nil {
		t.Fatal(err)
	}
	if r5.Index != 0 || other2.Len() != 1 {
		t.Fatalf("other-run retry after recovery: index=%d len=%d, want replay of index 0",
			r5.Index, other2.Len())
	}
}

// driveProfiledSession runs the scripted guarded session of
// TestProfilerScriptedSession against one coordinator: five accepted
// events, one guard-rejected hire, one certification.
func driveProfiledSession(t *testing.T, c *Coordinator, profiler *prof.Profiler) {
	t.Helper()
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
	_ = c.Certify(context.Background(), "sue", 2,
		transparency.Options{Profiler: profiler, PoolFresh: 2, MaxTuplesPerRelation: 1})
}

// TestProfilerPerRunAttribution is the two-coordinator acceptance test for
// per-run condition counting: two coordinators in one process, each with its
// own profiler, run the same scripted session; each profiler's counters —
// the condition-evaluation tallies included — must equal the
// single-coordinator baseline exactly. Any cross-talk doubles (or splits) a
// counter and fails the comparison.
func TestProfilerPerRunAttribution(t *testing.T) {
	newGuarded := func() (*Coordinator, *prof.Profiler) {
		staged, err := design.Staged(workload.Hiring(), "sue")
		if err != nil {
			t.Fatal(err)
		}
		c := New("Staged", staged)
		p := prof.New()
		c.SetProfiler(p)
		if err := c.Guard("sue", 2); err != nil {
			t.Fatal(err)
		}
		return c, p
	}

	// Baseline: one coordinator, alone in the process.
	cb, pb := newGuarded()
	driveProfiledSession(t, cb, pb)
	base := pb.Snapshot()
	// The scripted session's exact cost: the Staged views select with
	// `true`, so every condition evaluation is a True node. Views are
	// filters over the instance, so the count is one selection check per
	// row a view access touches (key lookups and scanned rows). Each
	// (event, peer) visibility check runs once per release, in the
	// explainer's step; the snapshot reuses its visible-index log.
	if base.Cond.Total != 57 || base.Cond.True != 57 {
		t.Fatalf("baseline cond counts = %+v, want 57 True evaluations", base.Cond)
	}
	if tt := base.Totals; tt.Attempts != 4 || tt.Candidates != 4 || tt.Fires != 6 || tt.Replays != 6 {
		t.Fatalf("baseline totals = %+v, want attempts 4, candidates 4, fires 6, replays 6", tt)
	}

	// Fleet: two coordinators, two profilers, both sessions interleaved.
	c1, p1 := newGuarded()
	c2, p2 := newGuarded()
	driveProfiledSession(t, c1, p1)
	driveProfiledSession(t, c2, p2)
	s1, s2 := p1.Snapshot(), p2.Snapshot()

	for name, s := range map[string]*prof.Snapshot{"first": s1, "second": s2} {
		if s.Cond != base.Cond {
			t.Errorf("%s coordinator's cond counts diverge from the solo baseline (cross-run cross-talk):\n got:  %+v\n want: %+v",
				name, s.Cond, base.Cond)
		}
		if s.Totals.Fires != base.Totals.Fires || s.Totals.Replays != base.Totals.Replays ||
			s.Totals.Attempts != base.Totals.Attempts || s.Totals.Candidates != base.Totals.Candidates {
			t.Errorf("%s coordinator's totals diverge from the solo baseline:\n got:  %+v\n want: %+v",
				name, s.Totals, base.Totals)
		}
	}
	// Belt and suspenders: the sum of the two fleet profilers is exactly
	// twice the baseline — nothing was dropped on the floor either.
	if got := s1.Cond.Total + s2.Cond.Total; got != 2*base.Cond.Total {
		t.Errorf("fleet cond totals sum to %d, want %d", got, 2*base.Cond.Total)
	}
}

// TestUnprofiledRunLeavesProfiledCondsAlone: with two coordinators in one
// process and only A profiled, submits and view renders on B must not move
// A's condition counts. (A process-global count sink used to credit B's
// evaluations to whichever profiler had installed it.)
func TestUnprofiledRunLeavesProfiledCondsAlone(t *testing.T) {
	prog := workload.Hiring()
	a, b := New("Hiring", prog), New("Hiring", prog)
	pa := prof.New()
	a.SetProfiler(pa)
	if _, err := a.Submit("hr", "clear", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.View("sue"); err != nil {
		t.Fatal(err)
	}
	before := pa.Snapshot().Cond
	if before.Total == 0 {
		t.Fatal("profiled run evaluated no conditions — the test would be vacuous")
	}
	for _, s := range randomWorkload(t, prog, 3, 5) {
		if _, err := b.Submit(s.peer, s.rule, s.bindings); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.View("sue"); err != nil {
		t.Fatal(err)
	}
	if got := pa.Snapshot().Cond; got != before {
		t.Fatalf("traffic on the unprofiled run moved the profiled run's cond counts:\n got:  %+v\n want: %+v", got, before)
	}
}

// TestManagerProfilerIgnoresSiblingRuns is the fleet form of the same
// guarantee, wired as wfserve -profile-rules wires it: with the default run
// profiled, submits and view reads on /runs/alpha leave the default run's
// condition counts where they were.
func TestManagerProfilerIgnoresSiblingRuns(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	p := prof.New()
	m.Default().SetProfiler(p)
	h := m.Handler()
	if rec := fleetPost(t, h, "/submit", `{"peer":"hr","rule":"clear","bindings":{"x":"ann"}}`); rec.Code != http.StatusOK {
		t.Fatalf("default submit: %d: %s", rec.Code, rec.Body.String())
	}
	before := p.Snapshot().Cond
	if before.Total == 0 {
		t.Fatal("default run evaluated no conditions — the test would be vacuous")
	}
	if rec := fleetPost(t, h, "/runs", `{"id":"alpha"}`); rec.Code != http.StatusCreated {
		t.Fatalf("create alpha: %d", rec.Code)
	}
	for _, who := range []string{"sue", "bob"} {
		if rec := fleetPost(t, h, "/runs/alpha/submit", `{"peer":"hr","rule":"clear","bindings":{"x":"`+who+`"}}`); rec.Code != http.StatusOK {
			t.Fatalf("alpha submit: %d: %s", rec.Code, rec.Body.String())
		}
	}
	for _, peer := range []string{"sue", "hr"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/runs/alpha/view?peer="+peer, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("alpha view: %d: %s", rec.Code, rec.Body.String())
		}
	}
	if got := p.Snapshot().Cond; got != before {
		t.Fatalf("traffic on /runs/alpha moved the default run's cond counts:\n got:  %+v\n want: %+v", got, before)
	}
}

// TestRunLabeledMetrics: under a Manager with a registry, every coordinator
// family carries the run label, the fleet aggregates exist, and the fleet
// /statusz carries the runs block.
func TestRunLabeledMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := newTestManager(t, ManagerConfig{Registry: reg})
	h := m.Handler()
	if rec := fleetPost(t, h, "/runs", `{"id":"alpha"}`); rec.Code != http.StatusCreated {
		t.Fatalf("create alpha: %d", rec.Code)
	}
	submit := func(path, who string) {
		t.Helper()
		rec := fleetPost(t, h, path, `{"peer":"hr","rule":"clear","bindings":{"x":"`+who+`"}}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("submit %s: status %d: %s", path, rec.Code, rec.Body.String())
		}
	}
	submit("/submit", "sue")
	submit("/runs/alpha/submit", "sue")
	submit("/runs/alpha/submit", "bob")

	accepted := map[string]float64{}
	var runsActive, fleetEvents float64
	for _, fam := range reg.Gather() {
		switch fam.Name {
		case "wf_submissions_accepted_total":
			for _, s := range fam.Series {
				if len(s.Labels) != 1 || s.Labels[0].Name != "run" {
					t.Fatalf("accepted series labels = %+v, want one run label", s.Labels)
				}
				accepted[s.Labels[0].Value] = s.Value
			}
		case "wf_runs_active":
			runsActive = fam.Series[0].Value
		case "wf_fleet_events":
			fleetEvents = fam.Series[0].Value
		}
	}
	if accepted[DefaultRun] != 1 || accepted["alpha"] != 2 {
		t.Fatalf("accepted by run = %v, want default:1 alpha:2", accepted)
	}
	if runsActive != 2 {
		t.Fatalf("wf_runs_active = %v, want 2", runsActive)
	}
	if fleetEvents != 3 {
		t.Fatalf("wf_fleet_events = %v, want 3", fleetEvents)
	}

	// The fleet statusz: default run's page plus the runs block.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statusz", nil))
	var st Statusz
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/statusz not JSON: %v", err)
	}
	if st.Run != DefaultRun {
		t.Fatalf("statusz run = %q, want %q", st.Run, DefaultRun)
	}
	if st.Runs == nil || st.Runs.Active != 2 || st.Runs.Events != 3 || len(st.Runs.Runs) != 2 {
		t.Fatalf("statusz runs block = %+v", st.Runs)
	}
	// Per-run rows carry the gauges that used to be process-global.
	byID := map[string]RunStatus{}
	for _, r := range st.Runs.Runs {
		byID[r.ID] = r
	}
	if byID["alpha"].Events != 2 || byID[DefaultRun].Events != 1 {
		t.Fatalf("per-run events = %+v", byID)
	}
}

// TestManagerSharedHTTPMetrics: HTTP-layer families stay unlabeled and
// shared across the fleet (one scrape surface), while coordinator families
// split by run — the two metric modes coexist on one registry.
func TestManagerSharedHTTPMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := newTestManager(t, ManagerConfig{Registry: reg})
	h := m.Handler()
	if rec := fleetPost(t, h, "/runs", `{"id":"alpha"}`); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d", rec.Code)
	}
	for _, path := range []string{"/view?peer=hr", "/runs/alpha/view?peer=hr"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
	}
	var total float64
	for _, fam := range reg.Gather() {
		if fam.Name != "wf_http_requests_total" {
			continue
		}
		for _, s := range fam.Series {
			for _, l := range s.Labels {
				if l.Name == "run" {
					t.Fatalf("HTTP family grew a run label: %+v", s.Labels)
				}
			}
			total += s.Value
		}
	}
	if total < 2 {
		t.Fatalf("wf_http_requests_total = %v, want ≥ 2 (both runs' requests pooled)", total)
	}
}

// TestInMemoryFleetIdemWindow: the Durability template configures an
// in-memory fleet as it does a durable one. With a window of one, accepting
// k2 evicts k1, so a retried k1 executes again and gets a new index instead
// of replaying the first.
func TestInMemoryFleetIdemWindow(t *testing.T) {
	m := newTestManager(t, ManagerConfig{Durability: DurabilityConfig{IdemWindow: 1}})
	c := m.Default()
	submit := func(key string) int {
		t.Helper()
		res, err := c.SubmitIdemCtx(context.Background(), "hr", "clear", nil, key)
		if err != nil {
			t.Fatal(err)
		}
		return res.Index
	}
	first := submit("k1")
	submit("k2")
	if again := submit("k1"); again == first {
		t.Fatalf("retried k1 replayed index %d; a window of 1 must have evicted it", first)
	}
}
