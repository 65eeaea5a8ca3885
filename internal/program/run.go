package program

import (
	"fmt"
	"strings"
	"time"

	"collabwf/internal/cond"
	"collabwf/internal/data"
	"collabwf/internal/prof"
	"collabwf/internal/query"
	"collabwf/internal/rule"
	"collabwf/internal/schema"
)

// Step is one transition of a run: the event together with the instance it
// produced and the recorded effects.
type Step struct {
	Event    *Event
	Instance *schema.Instance
	Effects  []Effect

	// added records the values this step contributed to the run's freshness
	// ledger, so Truncate can undo the step exactly.
	added []data.Value
}

// Run is a run of a program: a sequence of steps starting from an initial
// instance (the empty instance unless constructed with NewRunFrom). The run
// enforces the freshness condition on head-only variables.
//
// A Run is not safe for concurrent use; the server package's Coordinator
// serializes concurrent peers onto one run.
type Run struct {
	Prog    *Program
	Initial *schema.Instance
	Steps   []Step

	consts data.ValueSet // const(P)
	seen   data.ValueSet // values of the initial and all later instances
	fresh  *data.FreshSource

	// prof, when non-nil, attributes candidate-enumeration and replay cost
	// to the evaluation profiler. Nil (the default) keeps the original
	// uninstrumented paths: the hooks cost one nil test and no clock reads.
	prof *prof.Scope
}

// SetProfiler attaches a profiler scope to the run (nil detaches). The
// scope shares the run's non-concurrency: callers serialize through the
// same lock that guards the run itself.
func (r *Run) SetProfiler(sc *prof.Scope) { r.prof = sc }

// Profiler returns the run's profiler scope (nil when profiling is off).
func (r *Run) Profiler() *prof.Scope { return r.prof }

// NewRun starts a run of p from the empty instance.
func NewRun(p *Program) *Run {
	return NewRunFrom(p, schema.NewInstance(p.Schema.DB))
}

// NewRunFrom starts a run of p from an arbitrary initial instance. The run
// keeps an O(#relations) clone of it, so later writes to initial do not
// reach the run.
func NewRunFrom(p *Program, initial *schema.Instance) *Run {
	r := &Run{
		Prog:    p,
		Initial: initial.Clone(),
		consts:  p.Constants(),
		seen:    data.NewValueSet(),
		fresh:   data.NewFreshSource("ν"),
	}
	r.seen.AddAll(initial.ADom())
	return r
}

// Len returns the number of events in the run.
func (r *Run) Len() int { return len(r.Steps) }

// Event returns the i-th event (0-based).
func (r *Run) Event(i int) *Event { return r.Steps[i].Event }

// Events returns the event sequence e(ρ).
func (r *Run) Events() []*Event {
	out := make([]*Event, len(r.Steps))
	for i, s := range r.Steps {
		out[i] = s.Event
	}
	return out
}

// Effects returns the effects of the i-th event.
func (r *Run) Effects(i int) []Effect { return r.Steps[i].Effects }

// InstanceAt returns I_i, the instance after event i; InstanceAt(-1) is the
// initial instance.
func (r *Run) InstanceAt(i int) *schema.Instance {
	if i < 0 {
		return r.Initial
	}
	return r.Steps[i].Instance
}

// Current returns the latest instance of the run.
func (r *Run) Current() *schema.Instance { return r.InstanceAt(len(r.Steps) - 1) }

// ViewAt returns I_i@p, a filter over the instance; i may be -1 for the
// initial instance. The run's own counter block receives the condition
// evals of the view's selection checks, so N runs in one process attribute
// selection work to their own profilers.
func (r *Run) ViewAt(i int, p schema.Peer) *schema.ViewInstance {
	return schema.ViewOf(r.InstanceAt(i), r.Prog.Schema, p).CountConds(r.conds())
}

// VisibleAt reports whether event i is visible at peer p: either p performed
// it, or it changed p's view of the database (Section 3). The check is
// effect-local: relations the event did not touch cannot change any view,
// so only the affected tuples' visibility and projections are compared.
func (r *Run) VisibleAt(i int, p schema.Peer) bool {
	return StepVisibleAt(r.Prog.Schema, &r.Steps[i], p, r.conds())
}

// conds is the run's condition-eval count sink: its profiler's counter
// block, nil when profiling is off.
func (r *Run) conds() *cond.EvalCounts { return r.prof.Profiler().Cond() }

// StepVisibleAt is VisibleAt over a single step, without the run: visibility
// depends only on the step's event and effects plus the schema, so callers
// holding an immutable step prefix (the coordinator's read snapshots) can
// answer it with no access to the live — possibly growing — run. The
// selection evaluations are counted into cs (nil = uncounted).
func StepVisibleAt(s *schema.Collaborative, st *Step, p schema.Peer, cs *cond.EvalCounts) bool {
	if st.Event.Peer() == p {
		return true
	}
	for _, ef := range st.Effects {
		v, ok := s.View(p, ef.Rel)
		if !ok {
			continue
		}
		var before, after data.Tuple
		if ef.Before != nil && v.Sees(ef.Before, cs) {
			before = v.Project(ef.Before)
		}
		if ef.After != nil && v.Sees(ef.After, cs) {
			after = v.Project(ef.After)
		}
		if (before == nil) != (after == nil) {
			return true
		}
		if before != nil && !before.Equal(after) {
			return true
		}
	}
	return false
}

// Schema returns the collaborative schema the run's program is over.
func (r *Run) Schema() *schema.Collaborative { return r.Prog.Schema }

// VisibleEvents returns the indices of the events visible at p.
func (r *Run) VisibleEvents(p schema.Peer) []int {
	var out []int
	for i := range r.Steps {
		if r.VisibleAt(i, p) {
			out = append(out, i)
		}
	}
	return out
}

// Append extends the run with event e, enforcing the run conditions: the
// event's body must hold on the current instance, its updates must be
// applicable, and values bound to head-only variables must be globally
// fresh (absent from const(P), the initial instance, and every instance so
// far) and pairwise distinct.
func (r *Run) Append(e *Event) error {
	cur := r.Current()
	vi := r.ViewAt(len(r.Steps)-1, e.Peer())
	var satisfied bool
	if r.prof == nil {
		satisfied = e.Rule.Body.Satisfied(vi, e.Val)
	} else {
		start := time.Now()
		satisfied = e.Rule.Body.Satisfied(vi, e.Val)
		r.prof.RuleReplay(e.Rule.Name, string(e.Peer()), time.Since(start).Nanoseconds())
	}
	if !satisfied {
		return fmt.Errorf("program: event %s: body not satisfied at step %d", e, len(r.Steps))
	}
	freshVals := e.FreshValues()
	inEvent := data.NewValueSet()
	for _, v := range freshVals {
		if v.IsNull() {
			return fmt.Errorf("program: event %s: fresh variable bound to ⊥", e)
		}
		if r.consts.Has(v) || r.seen.Has(v) {
			return fmt.Errorf("program: event %s: value %s is not globally fresh", e, v)
		}
		if !inEvent.Add(v) {
			return fmt.Errorf("program: event %s: fresh variables share value %s", e, v)
		}
	}
	next, effects, err := Apply(cur, e, r.Prog.Schema, r.conds())
	if err != nil {
		return err
	}
	// Every value of the successor instance comes from the predecessor or
	// from the event itself (the chase only moves existing values), so the
	// freshness ledger grows by the event's values only. The newly seen
	// values are recorded on the step so Truncate can undo them.
	var added []data.Value
	for v := range e.Values() {
		if r.seen.Add(v) {
			added = append(added, v)
		}
	}
	r.Steps = append(r.Steps, Step{Event: e, Instance: next, Effects: effects, added: added})
	r.prof.RuleFired(e.Rule.Name, string(e.Peer()))
	return nil
}

// Truncate discards all events after the first n, restoring the run to the
// state it had before they were appended: the freshness ledger forgets the
// values the dropped steps introduced. It is the O(dropped)-cost inverse
// of Append that the backtracking searches rely on (rebuilding the prefix
// would re-check every body and re-apply every event).
func (r *Run) Truncate(n int) {
	if n < 0 || n > len(r.Steps) {
		panic(fmt.Sprintf("program: Truncate(%d) out of range [0,%d]", n, len(r.Steps)))
	}
	for i := len(r.Steps) - 1; i >= n; i-- {
		for _, v := range r.Steps[i].added {
			delete(r.seen, v)
		}
		r.Steps[i] = Step{} // release the instance
	}
	r.Steps = r.Steps[:n]
}

// MustAppend is Append panicking on error.
func (r *Run) MustAppend(e *Event) {
	if err := r.Append(e); err != nil {
		panic(err)
	}
}

// Candidate is a rule with a body valuation found on the current instance;
// firing it will extend the valuation with fresh values for head-only
// variables.
type Candidate struct {
	Rule *rule.Rule
	Val  query.Valuation
}

// String renders the candidate.
func (c Candidate) String() string { return c.Rule.Name + c.Val.String() }

// Candidates enumerates the applicable rule instantiations on the current
// instance, at most limitPerRule per rule (0 = no cap). The enumeration is
// deterministic. The returned candidates all have satisfiable bodies; their
// updates are only checked when fired.
func (r *Run) Candidates(limitPerRule int) []Candidate {
	var out []Candidate
	for _, rl := range r.Prog.Rules() {
		vi := r.ViewAt(len(r.Steps)-1, rl.Peer)
		if r.prof == nil {
			for _, val := range rl.Body.Eval(vi, limitPerRule) {
				out = append(out, Candidate{Rule: rl, Val: val})
			}
			continue
		}
		var es query.EvalStats
		start := time.Now()
		vals := rl.Body.EvalCollect(vi, limitPerRule, &es)
		r.prof.RuleEval(rl.Name, string(rl.Peer), time.Since(start).Nanoseconds(), &es)
		for _, val := range vals {
			out = append(out, Candidate{Rule: rl, Val: val})
		}
	}
	return out
}

// Fire instantiates candidate c, binding head-only variables to fresh
// values, and appends the resulting event to the run. Unbound body
// variables are completed by evaluating the body on the current instance
// seeded with the partial binding, stopping at the first match in
// deterministic order: the first valuation of the whole body's enumeration
// that agrees with the binding.
func (r *Run) Fire(c Candidate) (*Event, error) {
	unbound := false
	for _, v := range c.Rule.BodyVars() {
		if _, ok := c.Val[v]; !ok {
			unbound = true
			break
		}
	}
	var val query.Valuation
	if !unbound {
		val = c.Val.Clone()
	} else {
		vi := r.ViewAt(len(r.Steps)-1, c.Rule.Peer)
		var fulls []query.Valuation
		if r.prof == nil {
			fulls = c.Rule.Body.EvalSeeded(vi, c.Val, 1, nil)
		} else {
			var es query.EvalStats
			start := time.Now()
			fulls = c.Rule.Body.EvalSeeded(vi, c.Val, 1, &es)
			r.prof.RuleEval(c.Rule.Name, string(c.Rule.Peer), time.Since(start).Nanoseconds(), &es)
		}
		if len(fulls) == 0 {
			return nil, fmt.Errorf("program: rule %s: no body valuation extends %s", c.Rule.Name, c.Val)
		}
		val = fulls[0]
	}
	for _, v := range c.Rule.FreshVars() {
		if _, bound := val[v]; bound {
			continue
		}
		val[v] = r.NextFresh()
	}
	e, err := newEvent(c.Rule, val)
	if err != nil {
		return nil, err
	}
	if err := r.Append(e); err != nil {
		return nil, err
	}
	return e, nil
}

// FireRule fires the named rule with the given body bindings, a convenience
// for examples and tests.
func (r *Run) FireRule(name string, bindings map[string]data.Value) (*Event, error) {
	rl := r.Prog.Rule(name)
	if rl == nil {
		return nil, fmt.Errorf("program: no rule named %s", name)
	}
	val := make(query.Valuation, len(bindings))
	for k, v := range bindings {
		val[k] = v
	}
	return r.Fire(Candidate{Rule: rl, Val: val})
}

// MustFireRule is FireRule panicking on error.
func (r *Run) MustFireRule(name string, bindings map[string]data.Value) *Event {
	e, err := r.FireRule(name, bindings)
	if err != nil {
		panic(err)
	}
	return e
}

// NextFresh returns a value that is globally fresh for this run.
func (r *Run) NextFresh() data.Value {
	for {
		v := r.fresh.Next()
		if !r.consts.Has(v) && !r.seen.Has(v) {
			return v
		}
	}
}

// String renders the run as its event sequence.
func (r *Run) String() string {
	parts := make([]string, len(r.Steps))
	for i, s := range r.Steps {
		parts[i] = fmt.Sprintf("%d: %s", i, s.Event)
	}
	return strings.Join(parts, "\n")
}
