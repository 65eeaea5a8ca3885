package bench

import (
	"fmt"
	"time"

	"collabwf/internal/design"
	"collabwf/internal/engine"
	"collabwf/internal/program"
	"collabwf/internal/rule"
	"collabwf/internal/schema"
	"collabwf/internal/synth"
	"collabwf/internal/transparency"
	"collabwf/internal/workload"

	"collabwf/internal/data"
	"collabwf/internal/faithful"
	"collabwf/internal/query"
	"collabwf/internal/scenario"
)

// schemaOpts aliases the transparency search options for the harness.
type schemaOpts = transparency.Options

func checkBounded(p *program.Program, peer schema.Peer, h int, opts schemaOpts) (*transparency.BoundViolation, error) {
	return transparency.CheckBoundedCtx(Ctx(), p, peer, h, withPar(opts))
}

// E7Transparency — Theorem 5.11 and Example 5.7: transparency is decidable
// for h-bounded programs. The hiring program is rejected with a concrete
// counterexample; the chain program and the stage-disciplined hiring
// program are accepted.
func E7Transparency(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "transparency decision",
		Claim:   "Theorem 5.11 / Example 5.7: transparency decidable for h-bounded programs",
		Columns: []string{"program", "h", "verdict", "time"},
	}
	type caseT struct {
		name string
		prog *program.Program
		h    int
		opts schemaOpts
		want bool // transparent?
	}
	hiring := workload.Hiring()
	chain2, _, err := workload.Chain(2)
	if err != nil {
		return nil, err
	}
	small := schemaOpts{PoolFresh: 2, MaxTuplesPerRelation: 1}
	cases := []caseT{
		{"hiring", hiring, 3, small, false},
		{"hiring-no-cfo", workload.HiringTransparentNoCfo(), 2, small, false},
		{"chain(2)", chain2, 2, schemaOpts{PoolFresh: 1, MaxTuplesPerRelation: 1}, true},
	}
	if !quick {
		staged, err := design.Staged(hiring, "sue")
		if err != nil {
			return nil, err
		}
		cases = append(cases, caseT{"staged hiring", staged, 3, schemaOpts{
			PoolFresh: 2, MaxTuplesPerRelation: 1, MaxTuplesTotal: 3,
			MaxInstances: 400000, MaxNodes: 4000000}, true})
	}
	for _, c := range cases {
		start := time.Now()
		v, err := transparency.CheckTransparentCtx(Ctx(), c.prog, "sue", c.h, withPar(c.opts))
		if err != nil {
			return nil, fmt.Errorf("E7 %s: %w", c.name, err)
		}
		// Chain's peer is "p", not "sue" — rerun for it.
		if c.name == "chain(2)" {
			v, err = transparency.CheckTransparentCtx(Ctx(), c.prog, "p", c.h, withPar(c.opts))
			if err != nil {
				return nil, err
			}
		}
		dur := time.Since(start)
		verdict := "transparent"
		if v != nil {
			verdict = "violation"
		}
		t.AddRow(c.name, fmt.Sprintf("%d", c.h), verdict, ms(dur))
		if (v == nil) != c.want {
			return nil, fmt.Errorf("E7 %s: verdict %s unexpected", c.name, verdict)
		}
	}
	t.Notef("hiring rejected, stage-disciplined variant accepted (Theorem 6.2 by design)")
	return t, nil
}

// E8Synthesis — Theorem 5.13: the synthesized view program is sound and
// complete. Completeness is validated constructively on random source
// runs; soundness on random view-program runs via bounded source search.
func E8Synthesis(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "view-program synthesis with provenance",
		Claim:   "Theorem 5.13: P@p is a sound and complete view program",
		Columns: []string{"program", "h", "triples", "ω-rules", "synth time", "complete", "sound"},
	}
	small := schemaOpts{PoolFresh: 2, MaxTuplesPerRelation: 1}
	type caseT struct {
		name string
		prog *program.Program
		peer schema.Peer
		h    int
	}
	chain3, _, err := workload.Chain(3)
	if err != nil {
		return nil, err
	}
	cases := []caseT{
		{"hiring@sue", workload.Hiring(), "sue", 3},
		{"chain(3)@p", chain3, "p", 3},
	}
	runsPerCase := int64(6)
	if quick {
		runsPerCase = 2
	}
	for _, c := range cases {
		start := time.Now()
		res, err := synth.Synthesize(c.prog, c.peer, c.h, withPar(small))
		if err != nil {
			return nil, err
		}
		synthTime := time.Since(start)
		complete, sound := 0, 0
		for seed := int64(1); seed <= runsPerCase; seed++ {
			src, err := engine.RandomRun(c.prog, 8, seed, 4)
			if err != nil {
				return nil, err
			}
			if _, err := synth.MatchRun(res, src, c.peer); err == nil {
				complete++
			}
			rv, err := engine.RandomRun(res.Program, 2, seed, 3)
			if err != nil {
				return nil, err
			}
			if _, err := synth.FindSourceRun(c.prog, c.peer, rv, 12, 200000); err == nil {
				sound++
			}
		}
		t.AddRow(c.name, fmt.Sprintf("%d", c.h), fmt.Sprintf("%d", res.Triples),
			fmt.Sprintf("%d", len(res.OmegaRules)), ms(synthTime),
			fmt.Sprintf("%d/%d", complete, runsPerCase), fmt.Sprintf("%d/%d", sound, runsPerCase))
		if complete != int(runsPerCase) || sound != int(runsPerCase) {
			return nil, fmt.Errorf("E8 %s: completeness %d or soundness %d below %d", c.name, complete, sound, runsPerCase)
		}
	}
	t.Notef("every sampled run round-trips in both directions")
	return t, nil
}

// E9AcyclicBound — Theorem 6.3: a p-acyclic linear-head program is
// h-bounded with h = (ab+1)^d. The formula bound dominates the true
// minimal bound (measured exactly for small chains).
func E9AcyclicBound(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "acyclicity bound vs true bound (chain family)",
		Claim:   "Theorem 6.3: p-acyclic linear-head ⇒ h-bounded with h=(ab+1)^d",
		Columns: []string{"depth d", "(ab+1)^d", "true bound", "bound holds"},
	}
	depths := []int{1, 2, 3}
	if quick {
		depths = []int{1, 2}
	}
	for _, d := range depths {
		p, _, err := workload.Chain(d)
		if err != nil {
			return nil, err
		}
		formula, err := design.AcyclicBound(p, "p")
		if err != nil {
			return nil, err
		}
		trueBound, ok, err := transparency.BoundCtx(Ctx(), p, "p", d+1, withPar(schemaOpts{PoolFresh: 1, MaxTuplesPerRelation: 1}))
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("E9: no bound found for Chain(%d)", d)
		}
		holds := formula >= trueBound
		t.AddRow(fmt.Sprintf("%d", d), fmt.Sprintf("%d", formula), fmt.Sprintf("%d", trueBound), fmt.Sprintf("%v", holds))
		if !holds {
			return nil, fmt.Errorf("E9: formula bound %d below true bound %d", formula, trueBound)
		}
	}
	t.Notef("the closed-form bound always dominates the exact minimal h")
	return t, nil
}

// E10Monitor — Theorem 6.7 / Remark 6.9: the runtime monitor accepts
// exactly the transparent h-bounded runs and costs a small constant factor.
func E10Monitor(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "runtime transparency monitor (staged hiring)",
		Claim:   "Theorem 6.7/Remark 6.9: violating runs are filtered (or flagged) at run time",
		Columns: []string{"hires", "events", "bare run", "monitored", "overhead", "violations h=3", "violations h=2"},
	}
	rounds := []int{5, 20}
	if quick {
		rounds = []int{3}
	}
	staged, err := design.Staged(workload.Hiring(), "sue")
	if err != nil {
		return nil, err
	}
	for _, k := range rounds {
		script := buildHiringScript(k)
		start := time.Now()
		r, err := playScript(staged, script)
		if err != nil {
			return nil, err
		}
		bare := time.Since(start)
		start = time.Now()
		r2, err := playScript(staged, script)
		if err != nil {
			return nil, err
		}
		mon := design.NewMonitor(r2, "sue", 3)
		monitored := time.Since(start)
		v3 := len(mon.Violations())
		v2 := len(design.CheckRun(r, "sue", 2))
		overhead := float64(monitored) / float64(bare)
		t.AddRow(fmt.Sprintf("%d", k), fmt.Sprintf("%d", r.Len()), ms(bare), ms(monitored),
			fmt.Sprintf("%.2fx", overhead), fmt.Sprintf("%d", v3), fmt.Sprintf("%d", v2))
		if v3 != 0 {
			return nil, fmt.Errorf("E10: clean staged run flagged at h=3")
		}
		if v2 == 0 {
			return nil, fmt.Errorf("E10: budget h=2 must be violated")
		}
	}
	t.Notef("h=3 runs accepted, h=2 rejected; monitoring is a small constant factor")
	return t, nil
}

type scriptStep struct {
	rule string
	bind map[string]data.Value
}

func buildHiringScript(hires int) []scriptStep {
	var s []scriptStep
	for i := 0; i < hires; i++ {
		s = append(s,
			scriptStep{rule: "stage_refresh_hr"},
			scriptStep{rule: "clear"},
			scriptStep{rule: "stage_refresh_cfo"},
			scriptStep{rule: "cfo_ok", bind: map[string]data.Value{"x": ""}}, // bound at play time
			scriptStep{rule: "approve", bind: map[string]data.Value{"x": ""}},
			scriptStep{rule: "hire", bind: map[string]data.Value{"x": ""}},
		)
	}
	return s
}

func playScript(p *program.Program, steps []scriptStep) (*program.Run, error) {
	r := program.NewRun(p)
	var cand data.Value
	for _, st := range steps {
		bind := map[string]data.Value{}
		for k := range st.bind {
			bind[k] = cand
		}
		e, err := r.FireRule(st.rule, bind)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st.rule, err)
		}
		if st.rule == "clear" {
			cand = e.Updates()[0].Key
		}
	}
	return r, nil
}

// E11Compression — Sections 3–4 / Examples 4.1–4.2: the minimal faithful
// scenario extracts exactly the portion of the run relevant to the peer;
// its size is independent of the amount of irrelevant activity.
func E11Compression(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "explanation compression (relevant chain + noise)",
		Claim:   "Theorem 4.7: the minimal faithful scenario extracts the relevant core",
		Columns: []string{"noise", "run len", "faithful len", "greedy len", "compression"},
	}
	noises := []int{0, 50, 200}
	if quick {
		noises = []int{0, 20}
	}
	const depth = 5
	for _, noise := range noises {
		_, r, err := workload.Wide(depth, noise)
		if err != nil {
			return nil, err
		}
		a := faithful.NewAnalysis(r)
		seq, _, err := faithful.Minimal(a, "p")
		if err != nil {
			return nil, err
		}
		greedy := scenario.Greedy(r, "p")
		if seq.Len() != depth {
			return nil, fmt.Errorf("E11: faithful scenario has %d events, want %d", seq.Len(), depth)
		}
		t.AddRow(fmt.Sprintf("%d", noise), fmt.Sprintf("%d", r.Len()),
			fmt.Sprintf("%d", seq.Len()), fmt.Sprintf("%d", len(greedy)),
			fmt.Sprintf("%.1fx", float64(r.Len())/float64(seq.Len())))
	}
	t.Notef("faithful scenario size stays %d regardless of noise", depth)
	return t, nil
}

// E12NormalForm — Proposition 2.3: every program has an equivalent
// normal-form program; the rewriting multiplies a rule with a negative
// relational literal by at most (arity) cases.
func E12NormalForm(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "normal-form rewriting blow-up",
		Claim:   "Proposition 2.3: normal form preserves runs; blow-up bounded by arity per negative literal",
		Columns: []string{"arity", "neg literals", "rules before", "rules after", "bound", "within"},
	}
	arities := []int{1, 2, 3}
	if quick {
		arities = []int{1, 2}
	}
	for _, arity := range arities {
		for _, negs := range []int{1, 2} {
			p, err := negativeProgram(arity, negs)
			if err != nil {
				return nil, err
			}
			nf, err := p.NormalForm()
			if err != nil {
				return nil, err
			}
			before := len(p.Rules())
			after := len(nf.Rules())
			bound := 1
			for i := 0; i < negs; i++ {
				bound *= arity + 1 // ¬Key case + one per non-key attribute
			}
			bound += before - 1
			within := after <= bound
			t.AddRow(fmt.Sprintf("%d", arity+1), fmt.Sprintf("%d", negs),
				fmt.Sprintf("%d", before), fmt.Sprintf("%d", after),
				fmt.Sprintf("%d", bound), fmt.Sprintf("%v", within))
			if !within {
				return nil, fmt.Errorf("E12: blow-up %d exceeds bound %d", after, bound)
			}
			if !nf.IsNormalForm() {
				return nil, fmt.Errorf("E12: output not in normal form")
			}
		}
	}
	t.Notef("blow-up is exactly the case analysis of Proposition 2.3")
	return t, nil
}

// negativeProgram builds a two-rule program whose second rule carries the
// given number of negative relational literals over a relation with the
// given number of non-key attributes.
func negativeProgram(nonKeyArity, negs int) (*program.Program, error) {
	attrs := make([]data.Attr, nonKeyArity)
	for i := range attrs {
		attrs[i] = data.Attr(fmt.Sprintf("A%d", i))
	}
	r := schema.MustRelation("R", attrs...)
	out := schema.MustRelation("Out", attrs...)
	db := schema.MustDatabase(r, out)
	s := schema.NewCollaborative(db)
	s.MustAddView(schema.MustView(r, "q", attrs, nil))
	s.MustAddView(schema.MustView(out, "q", attrs, nil))

	mkArgs := func(prefix string) []query.Term {
		args := []query.Term{query.V(prefix + "k")}
		for i := 0; i < nonKeyArity; i++ {
			args = append(args, query.V(fmt.Sprintf("%sv%d", prefix, i)))
		}
		return args
	}
	body := query.Query{query.Atom{Rel: "R", Args: mkArgs("a")}}
	for n := 0; n < negs; n++ {
		// Negative literal over values bound by the positive atom.
		negArgs := []query.Term{query.V("ak")}
		for i := 0; i < nonKeyArity; i++ {
			negArgs = append(negArgs, query.V(fmt.Sprintf("av%d", i)))
		}
		body = append(body, query.Atom{Neg: true, Rel: "Out", Args: negArgs})
	}
	rules := []*rule.Rule{
		{Name: "mk", Peer: "q",
			Head: []rule.Update{rule.Insert{Rel: "R", Args: mkArgs("f")}},
			Body: query.Query{}},
		{Name: "derive", Peer: "q",
			Head: []rule.Update{rule.Insert{Rel: "Out", Args: mkArgs("a")}},
			Body: body},
	}
	return program.New(s, rules)
}
