package design

import (
	"strings"
	"testing"

	"collabwf/internal/cond"
	"collabwf/internal/data"
	"collabwf/internal/program"
	"collabwf/internal/query"
	"collabwf/internal/rule"
	"collabwf/internal/schema"
	"collabwf/internal/transparency"
	"collabwf/internal/workload"
)

func TestCheckC1(t *testing.T) {
	if err := CheckC1(workload.Hiring(), "sue"); err != nil {
		t.Fatal(err)
	}
	// A peer seeing a sue-visible relation partially violates (C1).
	rel := schema.MustRelation("R", "A")
	db := schema.MustDatabase(rel)
	s := schema.NewCollaborative(db)
	s.MustAddView(schema.MustView(rel, "sue", []data.Attr{"A"}, nil))
	s.MustAddView(schema.MustView(rel, "q", nil, nil)) // only K
	p := program.MustNew(s, []*rule.Rule{{
		Name: "mk", Peer: "sue",
		Head: []rule.Update{rule.Insert{Rel: "R", Args: []query.Term{query.V("k"), query.V("a")}}},
		Body: query.Query{},
	}})
	if err := CheckC1(p, "sue"); err == nil {
		t.Fatal("partial view of a sue-visible relation must violate C1")
	}
	// Selective views violate C1 too.
	s2 := schema.NewCollaborative(schema.MustDatabase(rel))
	_ = s2
	sel := schema.NewCollaborative(db)
	sel.MustAddView(schema.MustView(rel, "sue", []data.Attr{"A"}, nil))
	sel.MustAddView(schema.MustView(rel, "q", []data.Attr{"A"}, cond.EqConst{Attr: "A", Const: "x"}))
	p2 := program.MustNew(sel, nil)
	_ = p2
	if err := CheckC1(program.MustNew(sel, []*rule.Rule{}), "sue"); err == nil {
		t.Fatal("selective view must violate C1")
	}
}

// playStagedHiring drives the staged hiring program through a full hiring,
// returning the run and the candidate key.
func playStagedHiring(t *testing.T, p *program.Program) (*program.Run, data.Value) {
	t.Helper()
	r := program.NewRun(p)
	r.MustFireRule("stage_refresh_hr", nil)
	e := r.MustFireRule("clear", nil) // closes the stage
	cand := e.Updates()[0].Key
	r.MustFireRule("stage_refresh_cfo", nil)
	r.MustFireRule("cfo_ok", map[string]data.Value{"x": cand})
	r.MustFireRule("approve", map[string]data.Value{"x": cand})
	r.MustFireRule("hire", map[string]data.Value{"x": cand})
	if !r.Current().HasKey("Hire", cand) {
		t.Fatal("staged hiring did not hire")
	}
	return r, cand
}

func TestStagedHiringRuns(t *testing.T) {
	p, err := Staged(workload.Hiring(), "sue")
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsNormalForm() {
		t.Fatal("staged program must be in normal form")
	}
	r, _ := playStagedHiring(t, p)
	if r.Len() != 6 {
		t.Fatalf("run length %d", r.Len())
	}
	// The stage is closed after the visible hire.
	if r.Current().HasKey(StageRelation, StageKey) {
		t.Fatal("hire must close the stage")
	}
}

func TestStagedIsTF(t *testing.T) {
	p, err := Staged(workload.Hiring(), "sue")
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTF(p, "sue"); err != nil {
		t.Fatal(err)
	}
	// The unstaged program is not TF (no Stage relation).
	if err := CheckTF(workload.Hiring(), "sue"); err == nil {
		t.Fatal("unstaged hiring must not be TF")
	}
}

// Theorem 6.2: the staged program is transparent for sue (contrast with the
// unstaged program, tested in the transparency package).
func TestStagedHiringTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive transparency check")
	}
	p, err := Staged(workload.Hiring(), "sue")
	if err != nil {
		t.Fatal(err)
	}
	v, err := transparency.CheckTransparent(p, "sue", 3, transparency.Options{
		PoolFresh: 2, MaxTuplesPerRelation: 1, MaxTuplesTotal: 3,
		MaxInstances: 400000, MaxNodes: 4000000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("staged hiring must be transparent for sue, got:\n%s", v)
	}
}

func TestStagedRejectsExistingStage(t *testing.T) {
	p, err := Staged(workload.Hiring(), "sue")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Staged(p, "sue"); err == nil {
		t.Fatal("double staging must fail")
	}
}

func TestPGraphAndAcyclicBound(t *testing.T) {
	p, _, err := workload.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	g := NewPGraph(p, "p")
	edges := g.Edges()
	// A2 depends on A1, A3 depends on A2 (A3 is visible at p, so no edge
	// targets A3).
	if len(edges) != 2 {
		t.Fatalf("edges=%v", edges)
	}
	ok, cycle := g.Acyclic(p.Schema)
	if !ok {
		t.Fatalf("chain is acyclic, got cycle %v", cycle)
	}
	if d := g.LongestPathFrom("A3"); d != 2 {
		t.Fatalf("LongestPathFrom(A3)=%d", d)
	}
	h, err := AcyclicBound(p, "p")
	if err != nil {
		t.Fatal(err)
	}
	// b=1, d=3, a=2 → (2·1+1)^3 = 27, a safe over-approximation of the
	// true bound 3 (verified exactly by the transparency package tests).
	if h != 27 {
		t.Fatalf("AcyclicBound=%d", h)
	}
	if v, err := transparency.CheckBounded(p, "p", 3, transparency.Options{PoolFresh: 1, MaxTuplesPerRelation: 1}); err != nil || v != nil {
		t.Fatalf("the true bound 3 ≤ %d must hold: %v %v", h, v, err)
	}
}

func TestPGraphCycleDetected(t *testing.T) {
	// A and B derive each other; C (visible) depends on A.
	a := schema.MustRelation("A")
	b := schema.MustRelation("B")
	c := schema.MustRelation("C")
	db := schema.MustDatabase(a, b, c)
	s := schema.NewCollaborative(db)
	for _, rel := range []*schema.Relation{a, b, c} {
		s.MustAddView(schema.MustView(rel, "q", nil, nil))
	}
	s.MustAddView(schema.MustView(c, "p", nil, nil))
	mk := func(name, dst, src string) *rule.Rule {
		return &rule.Rule{Name: name, Peer: "q",
			Head: []rule.Update{rule.Insert{Rel: dst, Args: []query.Term{query.C("0")}}},
			Body: query.Query{query.Atom{Rel: src, Args: []query.Term{query.C("0")}}}}
	}
	p := program.MustNew(s, []*rule.Rule{mk("ab", "A", "B"), mk("ba", "B", "A"), mk("ca", "C", "A")})
	g := NewPGraph(p, "p")
	ok, cycle := g.Acyclic(p.Schema)
	if ok || len(cycle) == 0 {
		t.Fatal("cycle must be detected")
	}
	if _, err := AcyclicBound(p, "p"); err == nil {
		t.Fatal("AcyclicBound must reject cyclic programs")
	}
}

func TestAcyclicBoundRequiresLinearHead(t *testing.T) {
	_, r := workload.Approval()
	_ = r
	p := workload.Hiring()
	// Hiring is linear-head; force a violation by a two-update rule.
	two := &rule.Rule{Name: "two", Peer: "hr",
		Head: []rule.Update{
			rule.Insert{Rel: "Cleared", Args: []query.Term{query.V("x")}},
			rule.Insert{Rel: "Hire", Args: []query.Term{query.V("y")}},
		},
		Body: query.Query{}}
	pp := program.MustNew(p.Schema, append(append([]*rule.Rule{}, p.Rules()...), two))
	if IsLinearHead(pp) {
		t.Fatal("two-update head is not linear")
	}
	if _, err := AcyclicBound(pp, "sue"); err == nil {
		t.Fatal("non-linear-head must be rejected")
	}
}

func TestStagesSplitting(t *testing.T) {
	_, r := workload.Approval()
	// For the applicant only h (index 3) is visible: one stage [0,3].
	st := Stages(r, "applicant")
	if len(st) != 1 || st[0] != [2]int{0, 3} {
		t.Fatalf("stages=%v", st)
	}
	// For the cto (performs e,f; sees g,h) every event is visible.
	st = Stages(r, "cto")
	if len(st) != 4 {
		t.Fatalf("stages=%v", st)
	}
}

// The monitor accepts transparent stage-disciplined runs and rejects runs
// whose visible events depend on earlier-stage invisible facts.
func TestMonitorOnStagedHiring(t *testing.T) {
	p, err := Staged(workload.Hiring(), "sue")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := playStagedHiring(t, p)
	if vs := CheckRun(r, "sue", 3); len(vs) != 0 {
		t.Fatalf("staged run must be clean, got %v", vs)
	}
	// With budget h=2 the hire stage (cfo_ok, approve, hire) overflows.
	vs := CheckRun(r, "sue", 2)
	if len(vs) == 0 {
		t.Fatal("h=2 must be violated")
	}
	if !strings.Contains(vs[0].Reason, "budget") {
		t.Fatalf("reason=%q", vs[0].Reason)
	}
}

// On the unstaged hiring program, a run where approve consumes a CfoOK fact
// from a previous stage is flagged as non-transparent.
func TestMonitorFlagsCrossStageUse(t *testing.T) {
	p := workload.Hiring()
	r := program.NewRun(p)
	e := r.MustFireRule("clear", nil) // stage 1 ends (visible)
	cand := e.Updates()[0].Key
	r.MustFireRule("cfo_ok", map[string]data.Value{"x": cand})  // silent
	r.MustFireRule("approve", map[string]data.Value{"x": cand}) // silent
	r.MustFireRule("hire", map[string]data.Value{"x": cand})    // visible: ok, same stage
	if vs := CheckRun(r, "sue", 3); len(vs) != 0 {
		t.Fatalf("same-stage chain must be clean, got %v", vs)
	}
	// Now interleave a visible event between the silent derivation and its
	// visible use: approve's Approved fact comes from the previous stage.
	r2 := program.NewRun(p)
	e2 := r2.MustFireRule("clear", nil)
	c2 := e2.Updates()[0].Key
	r2.MustFireRule("cfo_ok", map[string]data.Value{"x": c2})
	r2.MustFireRule("approve", map[string]data.Value{"x": c2})
	r2.MustFireRule("clear", nil) // visible: stage boundary
	r2.MustFireRule("hire", map[string]data.Value{"x": c2})
	vs := CheckRun(r2, "sue", 3)
	if len(vs) != 1 || !strings.Contains(vs[0].Reason, "earlier stage") {
		t.Fatalf("cross-stage use must be flagged, got %v", vs)
	}
}

func TestMonitorNegativeFacts(t *testing.T) {
	// Approval's run: g (+Ok guarded by ¬Key_Ok) fires after f deleted Ok
	// in the same stage: transparent for the applicant if the deletion was
	// transparent. All of e,f,g are silent for the applicant; h is visible
	// and uses Ok — created this stage by g transparently. Clean.
	_, r := workload.Approval()
	if vs := CheckRun(r, "applicant", 4); len(vs) != 0 {
		t.Fatalf("approval run must be clean for applicant, got %v", vs)
	}
	// With h=1 the provenance of h (g plus h itself... g counts 1, h adds
	// 1 → 2) overflows.
	if vs := CheckRun(r, "applicant", 1); len(vs) == 0 {
		t.Fatal("h=1 must overflow")
	}
}

func TestRewriteProducesBookkeeping(t *testing.T) {
	staged, err := Staged(workload.Hiring(), "sue")
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Rewrite(staged, "sue", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Bookkeeping relations exist for the invisible relations.
	for _, name := range []string{"CfoOK" + tfSuffix, "Approved" + tfSuffix} {
		if pt.Schema.DB.Relation(name) == nil {
			t.Fatalf("missing bookkeeping relation %s", name)
		}
	}
	if pt.Schema.DB.Relation("Cleared"+tfSuffix) != nil {
		t.Fatal("visible relations need no bookkeeping")
	}
	// Every rewritten rule maps back to an original rule.
	for _, r := range pt.Rules() {
		origin := r.Origin
		if origin == "" {
			origin = r.Name
		}
		if staged.Rule(origin) == nil {
			t.Fatalf("rule %s has no origin in the staged program", r.Name)
		}
	}
}

// Theorem 6.7, projection direction: runs of Pᵗ project (Π) to runs of the
// TF program with the same sue-view, and the projected runs are transparent
// and h-bounded (the monitor is clean on them).
func TestRewriteRunsProjectToTransparentRuns(t *testing.T) {
	staged, err := Staged(workload.Hiring(), "sue")
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Rewrite(staged, "sue", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the happy path through the transparent variants of Pᵗ.
	r := program.NewRun(pt)
	fire := func(name string, bind map[string]data.Value) *program.Event {
		t.Helper()
		e, err := r.FireRule(name, bind)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return e
	}
	// fireVariant tries every Pᵗ rule derived from the named staged rule
	// until one fires (the right slot distribution depends on the run).
	fireVariant := func(origin string, bind map[string]data.Value) *program.Event {
		t.Helper()
		for _, rl := range pt.Rules() {
			if rl.Origin != origin {
				continue
			}
			if e, err := r.FireRule(rl.Name, bind); err == nil {
				return e
			}
		}
		t.Fatalf("no variant of %s fires\nrules:\n%s", origin, pt)
		return nil
	}
	fire("stage_refresh_hr", nil)
	e := fireVariant("clear", nil)
	cand := e.Updates()[0].Key
	fire("stage_refresh_cfo", nil)
	fireVariant("cfo_ok", map[string]data.Value{"x": cand})
	fireVariant("approve", map[string]data.Value{"x": cand})
	fireVariant("hire", map[string]data.Value{"x": cand})
	proj, err := ProjectRun(r, staged)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Len() != r.Len() {
		t.Fatalf("projection changed length: %d vs %d", proj.Len(), r.Len())
	}
	if !proj.Current().HasKey("Hire", cand) {
		t.Fatal("projected run must hire")
	}
	if vs := CheckRun(proj, "sue", 3); len(vs) != 0 {
		t.Fatalf("projected run must be transparent and 3-bounded, got %v", vs)
	}
}

// Filtering in Pᵗ: a fact produced by an opaque variant cannot feed a
// transparent variant, so a visible event depending on it cannot fire at
// all — the run blocks, exactly the Theorem 6.7 filtering semantics.
func TestRewriteOpaqueFactsBlockVisibleEvents(t *testing.T) {
	staged, err := Staged(workload.Hiring(), "sue")
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Rewrite(staged, "sue", 3)
	if err != nil {
		t.Fatal(err)
	}
	r := program.NewRun(pt)
	mustFireByOrigin := func(origin string, bind map[string]data.Value, opaque bool) *program.Event {
		t.Helper()
		for _, rl := range pt.Rules() {
			if rl.Origin != origin {
				continue
			}
			isOpaque := strings.HasSuffix(rl.Name, "o")
			if isOpaque != opaque {
				continue
			}
			if e, err := r.FireRule(rl.Name, bind); err == nil {
				return e
			}
		}
		t.Fatalf("no %s variant of %s fires", map[bool]string{true: "opaque", false: "transparent"}[opaque], origin)
		return nil
	}
	if _, err := r.FireRule("stage_refresh_hr", nil); err != nil {
		t.Fatal(err)
	}
	e := mustFireByOrigin("clear", nil, false)
	cand := e.Updates()[0].Key
	if _, err := r.FireRule("stage_refresh_cfo", nil); err != nil {
		t.Fatal(err)
	}
	// Fire cfo_ok OPAQUELY: its CfoOK fact is marked T=1.
	mustFireByOrigin("cfo_ok", map[string]data.Value{"x": cand}, true)
	// No transparent approve variant can consume the opaque fact.
	for _, rl := range pt.Rules() {
		if rl.Origin != "approve" || strings.HasSuffix(rl.Name, "o") {
			continue
		}
		if _, err := r.FireRule(rl.Name, map[string]data.Value{"x": cand}); err == nil {
			t.Fatalf("transparent variant %s consumed an opaque fact", rl.Name)
		}
	}
	// The opaque approve still works (silent progress is allowed)…
	mustFireByOrigin("approve", map[string]data.Value{"x": cand}, true)
	// …but hire (visible) has only transparent variants, none of which can
	// fire: the non-transparent computation is filtered out.
	for _, rl := range pt.Rules() {
		if rl.Origin != "hire" {
			continue
		}
		if _, err := r.FireRule(rl.Name, map[string]data.Value{"x": cand}); err == nil {
			t.Fatalf("visible hire fired from opaque facts via %s", rl.Name)
		}
	}
}
