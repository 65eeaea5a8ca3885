package faithful

import (
	"math/rand"
	"testing"

	"collabwf/internal/data"
	"collabwf/internal/program"
	"collabwf/internal/query"
	"collabwf/internal/rule"
	"collabwf/internal/scenario"
	"collabwf/internal/schema"
	"collabwf/internal/workload"
)

func TestLifecyclesApproval(t *testing.T) {
	_, r := workload.Approval()
	a := NewAnalysis(r)
	lcs := a.Lifecycles()
	// Ok has a closed lifecycle [0,1] and an open one [2,∞);
	// Approval has an open one [3,∞).
	if len(lcs) != 3 {
		t.Fatalf("lifecycles=%v", lcs)
	}
	if lc, ok := a.LifecycleAt("Ok", workload.PropKey, 0); !ok || lc.Left != 0 || lc.Right != 1 {
		t.Fatalf("lifecycle at 0: %v %v", lc, ok)
	}
	if lc, ok := a.LifecycleAt("Ok", workload.PropKey, 3); !ok || lc.Left != 2 || lc.Closed() {
		t.Fatalf("lifecycle at 3: %v %v", lc, ok)
	}
	if _, ok := a.LifecycleAt("Approval", workload.PropKey, 1); ok {
		t.Fatal("Approval has no lifecycle containing index 1")
	}
	if got := len(a.OpenLifecycles()); got != 2 {
		t.Fatalf("open lifecycles=%d", got)
	}
}

// Example 4.2: e·h is a scenario but not boundary faithful; g·h is the
// unique minimal applicant-faithful scenario.
func TestApprovalFaithfulness(t *testing.T) {
	_, r := workload.Approval()
	a := NewAnalysis(r)

	eh := NewSeq(0, 3)
	if IsBoundaryFaithful(a, eh) {
		t.Fatal("e·h must not be boundary faithful (h is in Ok's second lifecycle)")
	}
	if IsFaithful(a, eh, "applicant") {
		t.Fatal("e·h is not applicant-faithful")
	}

	gh := NewSeq(2, 3)
	if !IsFaithful(a, gh, "applicant") {
		t.Fatal("g·h is applicant-faithful")
	}
	if !IsFaithfulScenario(a, gh, "applicant") {
		t.Fatal("g·h is a faithful scenario")
	}

	min, sub, err := Minimal(a, "applicant")
	if err != nil {
		t.Fatal(err)
	}
	if !min.Equal(gh) {
		t.Fatalf("minimal faithful scenario = %v, want {2,3}", min)
	}
	if sub.Len() != 2 {
		t.Fatalf("replayed subrun has %d events", sub.Len())
	}
}

// Example 4.1 analogue: when a fact is derived twice, faithfulness pins the
// event that actually created it (the lifecycle's left boundary).
func TestDoubleDerivation(t *testing.T) {
	inst := workload.HittingSetInstance{N: 2, Sets: [][]int{{0, 1}}}
	_, r, err := workload.HittingSet(inst)
	if err != nil {
		t.Fatal(err)
	}
	// Run: a0(+V0) a1(+V1) b0_0(+C0 from V0) b0_1(+C0 again, no-op) c(+OK).
	a := NewAnalysis(r)
	// α = {a1, b0_1, c}: uses the second derivation of C0.
	alt := NewSeq(1, 3, 4)
	if !scenario.IsScenario(r, "p", alt.Sorted()) {
		t.Fatal("the alternative subrun is a scenario for p")
	}
	if IsBoundaryFaithful(a, alt) {
		t.Fatal("it must not be boundary faithful: C0 was created by b0_0")
	}
	min, _, err := Minimal(a, "p")
	if err != nil {
		t.Fatal(err)
	}
	// The minimal faithful scenario pins b0_0 (left boundary of C0) and a0
	// (left boundary of V0), and the visible c.
	want := NewSeq(0, 2, 4)
	if !min.Equal(want) {
		t.Fatalf("minimal faithful = %v, want %v", min, want)
	}
}

func TestMinimalIsLeastAmongFaithful(t *testing.T) {
	_, r := workload.Approval()
	a := NewAnalysis(r)
	min, _, err := Minimal(a, "applicant")
	if err != nil {
		t.Fatal(err)
	}
	// Every faithful scenario contains the minimal one (uniqueness of the
	// least fixpoint, Theorem 4.7). Enumerate all subsets of run indices.
	n := r.Len()
	for mask := 0; mask < 1<<n; mask++ {
		seq := NewSeq()
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				seq.Add(i)
			}
		}
		if IsFaithful(a, seq, "applicant") && !min.SubseqOf(seq) {
			t.Fatalf("faithful scenario %v does not contain the minimal %v", seq, min)
		}
	}
}

// Modification faithfulness: an event that filled a relevant attribute of a
// tuple must be included; one that filled an irrelevant attribute need not.
func TestModificationFaithfulness(t *testing.T) {
	doc := schema.MustRelation("Doc", "A", "B")
	flag := schema.MustRelation("Flag")
	db := schema.MustDatabase(doc, flag)
	s := schema.NewCollaborative(db)
	// q sees everything; p sees Flag and Doc's attribute A only.
	s.MustAddView(schema.MustView(doc, "q", []data.Attr{"A", "B"}, nil))
	s.MustAddView(schema.MustView(flag, "q", nil, nil))
	s.MustAddView(schema.MustView(doc, "p", []data.Attr{"A"}, nil))
	s.MustAddView(schema.MustView(flag, "p", nil, nil))
	rules := []*rule.Rule{
		{Name: "mk", Peer: "q",
			Head: []rule.Update{rule.Insert{Rel: "Doc", Args: []query.Term{query.C("d"), query.C(data.Null), query.C(data.Null)}}},
			Body: query.Query{}},
		{Name: "fillA", Peer: "q",
			Head: []rule.Update{rule.Insert{Rel: "Doc", Args: []query.Term{query.C("d"), query.C("a"), query.C(data.Null)}}},
			Body: query.Query{query.Atom{Rel: "Doc", Args: []query.Term{query.C("d"), query.C(data.Null), query.C(data.Null)}}}},
		{Name: "fillB", Peer: "q",
			Head: []rule.Update{rule.Insert{Rel: "Doc", Args: []query.Term{query.C("d"), query.V("x"), query.C("b")}}},
			Body: query.Query{query.Atom{Rel: "Doc", Args: []query.Term{query.C("d"), query.V("x"), query.C(data.Null)}}}},
		{Name: "flag", Peer: "q",
			Head: []rule.Update{rule.Insert{Rel: "Flag", Args: []query.Term{query.C("0")}}},
			Body: query.Query{query.Atom{Rel: "Doc", Args: []query.Term{query.C("d"), query.V("x"), query.V("y")}}}},
	}
	p := program.MustNew(s, rules)
	r := program.NewRun(p)
	r.MustFireRule("mk", nil)                                         // 0: create Doc(d,⊥,⊥) — visible at p (new key)
	r.MustFireRule("fillA", nil)                                      // 1: fill A — visible at p
	r.MustFireRule("fillB", map[string]data.Value{"x": "a"})          // 2: fill B — invisible at p
	r.MustFireRule("flag", map[string]data.Value{"x": "a", "y": "b"}) // 3: visible at p
	if !r.VisibleAt(1, "p") || r.VisibleAt(2, "p") || !r.VisibleAt(3, "p") {
		t.Fatal("visibility assumptions wrong")
	}
	a := NewAnalysis(r)
	min, _, err := Minimal(a, "p")
	if err != nil {
		t.Fatal(err)
	}
	// flag's peer q sees both A and B, so the B-fill (event 2) is relevant
	// to q and must be included: att(R,q) ∪ att(R,p) covers B.
	want := NewSeq(0, 1, 2, 3)
	if !min.Equal(want) {
		t.Fatalf("minimal = %v, want %v", min, want)
	}
	// By contrast {0,1,3} is not modification faithful for p.
	if IsModificationFaithful(a, NewSeq(0, 1, 3), "p") {
		t.Fatal("dropping the B-fill violates modification faithfulness")
	}
}

func TestSeqOps(t *testing.T) {
	a := NewSeq(1, 3, 5)
	b := NewSeq(3, 4)
	if got := Add(a, b); !got.Equal(NewSeq(1, 3, 4, 5)) {
		t.Fatalf("Add=%v", got)
	}
	if got := Mul(a, b); !got.Equal(NewSeq(3)) {
		t.Fatalf("Mul=%v", got)
	}
	if !NewSeq(1, 3).SubseqOf(a) || a.SubseqOf(b) {
		t.Fatal("SubseqOf broken")
	}
	c := a.Clone()
	c.Add(2)
	if a.Has(2) {
		t.Fatal("Clone aliases")
	}
	if a.String() != "{1,3,5}" {
		t.Fatalf("String()=%q", a.String())
	}
	if got := a.Sorted(); len(got) != 3 || got[0] != 1 || got[2] != 5 {
		t.Fatalf("Sorted()=%v", got)
	}
}

// Theorem 4.8: p-faithful scenarios are closed under Add and Mul, and the
// operations satisfy the semiring laws on them.
func TestSemiringClosure(t *testing.T) {
	inst := workload.HittingSetInstance{N: 3, Sets: [][]int{{0, 1}, {1, 2}}}
	_, r, err := workload.HittingSet(inst)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalysis(r)
	p := schema.Peer("p")

	// Sample faithful scenarios by closing random seeds over the visible
	// events.
	rng := rand.New(rand.NewSource(42))
	var faithfuls []Seq
	visible := NewSeq(r.VisibleEvents(p)...)
	for trial := 0; trial < 20; trial++ {
		seed := visible.Clone()
		for i := 0; i < r.Len(); i++ {
			if rng.Intn(3) == 0 {
				seed.Add(i)
			}
		}
		f := Fixpoint(a, seed, p)
		if !IsFaithful(a, f, p) {
			t.Fatalf("fixpoint %v is not faithful", f)
		}
		faithfuls = append(faithfuls, f)
	}
	full := NewSeq()
	for i := 0; i < r.Len(); i++ {
		full.Add(i)
	}
	for _, x := range faithfuls {
		for _, y := range faithfuls {
			sum, prod := Add(x, y), Mul(x, y)
			if !IsFaithfulScenario(a, sum, p) {
				t.Fatalf("Add(%v,%v)=%v not a faithful scenario", x, y, sum)
			}
			if !IsFaithfulScenario(a, prod, p) {
				t.Fatalf("Mul(%v,%v)=%v not a faithful scenario", x, y, prod)
			}
			// Commutativity.
			if !sum.Equal(Add(y, x)) || !prod.Equal(Mul(y, x)) {
				t.Fatal("Add/Mul must be commutative")
			}
			// Identities: ε for Add... the empty sequence is not faithful
			// (missing visible events) but is still the additive identity
			// as an operation; the full run is the multiplicative identity.
			if !Add(x, NewSeq()).Equal(x) || !Mul(x, full).Equal(x) {
				t.Fatal("identities broken")
			}
			for _, z := range faithfuls[:3] {
				// Distributivity: x*(y+z) = x*y + x*z.
				lhs := Mul(x, Add(y, z))
				rhs := Add(Mul(x, y), Mul(x, z))
				if !lhs.Equal(rhs) {
					t.Fatal("distributivity broken")
				}
			}
		}
	}
}

// The incremental maintainer agrees with the from-scratch fixpoint at every
// prefix, both for the maintained scenario and per-event explanations.
func TestMaintainerMatchesFromScratch(t *testing.T) {
	progs := []func() (*program.Program, *program.Run){
		func() (*program.Program, *program.Run) {
			p, r := workload.Approval()
			return p, r
		},
		func() (*program.Program, *program.Run) {
			inst := workload.HittingSetInstance{N: 3, Sets: [][]int{{0, 1}, {1, 2}}}
			p, r, err := workload.HittingSet(inst)
			if err != nil {
				t.Fatal(err)
			}
			return p, r
		},
	}
	peers := [][]schema.Peer{
		{"applicant", "assistant", "cto", "ceo"},
		{"p", "q"},
	}
	for pi, mk := range progs {
		full, fullRun := mk()
		_ = full
		for _, peer := range peers[pi] {
			// Rebuild the run incrementally, comparing after each event.
			inc := program.NewRunFrom(fullRun.Prog, fullRun.Initial)
			m := NewMaintainer(inc, peer)
			for i := 0; i < fullRun.Len(); i++ {
				if err := inc.Append(fullRun.Event(i)); err != nil {
					t.Fatal(err)
				}
				m.Sync()
				scratch := NewAnalysis(inc)
				wantMin := Fixpoint(scratch, NewSeq(inc.VisibleEvents(peer)...), peer)
				if !m.Minimal(peer).Equal(wantMin) {
					t.Fatalf("peer %s after event %d: incremental %v, scratch %v",
						peer, i, m.Minimal(peer), wantMin)
				}
				for f := 0; f <= i; f++ {
					wantF := Fixpoint(scratch, NewSeq(f), peer)
					if !m.Explanation(peer, f).Equal(wantF) {
						t.Fatalf("peer %s event %d explanation of %d: incremental %v, scratch %v",
							peer, i, f, m.Explanation(peer, f), wantF)
					}
				}
			}
		}
	}
}

// Maintainer handles delete-then-recreate lifecycles: the approval run has
// Ok created, deleted, re-created.
func TestMaintainerAcrossLifecycles(t *testing.T) {
	_, r := workload.Approval()
	m := NewMaintainer(r, "applicant")
	if got := m.Minimal("applicant"); !got.Equal(NewSeq(2, 3)) {
		t.Fatalf("Minimal=%v", got)
	}
	// The explanation of f (delete Ok) must include both boundaries of
	// the first lifecycle.
	if got := m.Explanation("applicant", 1); !got.Equal(NewSeq(0, 1)) {
		t.Fatalf("Explanation(f)=%v", got)
	}
	if m.Len() != 4 {
		t.Fatalf("Len=%d", m.Len())
	}
}

// Initial-instance tuples impose no boundary requirements (their lifecycle
// starts before the run).
func TestInitialInstanceLifecycles(t *testing.T) {
	p := workload.Hiring()
	init := schema.NewInstance(p.Schema.DB)
	init.MustPut("Cleared", data.Tuple{"sue"})
	init.MustPut("CfoOK", data.Tuple{"sue"})
	r := program.NewRunFrom(p, init)
	r.MustFireRule("approve", map[string]data.Value{"x": "sue"})
	r.MustFireRule("hire", map[string]data.Value{"x": "sue"})
	a := NewAnalysis(r)
	min, _, err := Minimal(a, "sue")
	if err != nil {
		t.Fatal(err)
	}
	// sue sees Hire; the hire event (1) requires approve (0)? approve only
	// fills Approved, which sue does not see, but hire's body key Approved
	// lies in Approved's lifecycle created by approve → boundary.
	if !min.Equal(NewSeq(0, 1)) {
		t.Fatalf("minimal=%v", min)
	}
}

// Stress the maintainer against from-scratch fixpoints on random relational
// runs with selections (crowdsourcing): workers' views involve selection
// conditions, exercising modification faithfulness with att(R, q) sets.
func TestMaintainerOnCrowdsourcingRuns(t *testing.T) {
	p, err := workload.Crowdsourcing(2)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		full, err := randomRun(p, 18, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, peer := range p.Peers() {
			inc := program.NewRunFrom(full.Prog, full.Initial)
			m := NewMaintainer(inc, peer)
			for i := 0; i < full.Len(); i++ {
				if err := inc.Append(full.Event(i)); err != nil {
					t.Fatal(err)
				}
				m.Sync()
			}
			scratch := NewAnalysis(inc)
			want := Fixpoint(scratch, NewSeq(inc.VisibleEvents(peer)...), peer)
			if !m.Minimal(peer).Equal(want) {
				t.Fatalf("seed %d peer %s: incremental %v vs scratch %v", seed, peer, m.Minimal(peer), want)
			}
			for f := 0; f < inc.Len(); f++ {
				if !m.Explanation(peer, f).Equal(Fixpoint(scratch, NewSeq(f), peer)) {
					t.Fatalf("seed %d peer %s event %d explanation mismatch", seed, peer, f)
				}
			}
		}
	}
}

// randomRun drives p without importing the engine package (import cycle).
func randomRun(p *program.Program, steps int, seed int64) (*program.Run, error) {
	r := program.NewRun(p)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		cands := r.Candidates(4)
		rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
		fired := false
		for _, c := range cands {
			if _, err := r.Fire(c); err == nil {
				fired = true
				break
			}
		}
		if !fired {
			break
		}
	}
	return r, nil
}
