package program

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"collabwf/internal/cond"
	"collabwf/internal/data"
	"collabwf/internal/prof"
	"collabwf/internal/query"
	"collabwf/internal/rule"
	"collabwf/internal/schema"
)

// Step is one transition of a run: the event together with the recorded
// effects and, when the run keeps it, the instance it produced.
type Step struct {
	Event *Event
	// Instance is I_i, the instance after the event, or nil when the run
	// keeps no version of it: a released step keeps one only every
	// keepEvery steps (see Run.Release). The effects determine it from
	// the nearest kept version before it (Cursor).
	Instance *schema.Instance
	Effects  []Effect
}

// Run is a run of a program: a sequence of steps starting from an initial
// instance (the empty instance unless constructed with NewRunFrom). The run
// enforces the freshness condition on head-only variables.
//
// A run keeps its current instance and the instance version of every step
// past its released prefix; of the released steps it keeps every
// keepEvery-th version (Release). A run nobody releases, such as a
// decider's search, keeps every version, so Truncate stays O(dropped).
//
// A Run is not safe for concurrent use; the server package's Coordinator
// serializes concurrent peers onto one run.
type Run struct {
	Prog    *Program
	Initial *schema.Instance
	Steps   []Step

	// cur is I_{len(Steps)-1}. After Replay it is transient until the
	// next other call settles it.
	cur *schema.Instance
	// released is the released prefix's length and base its last instance,
	// I_{released-1}, which Truncate returns to when it drops the whole
	// unreleased tail.
	released int
	base     *schema.Instance

	consts data.ValueSet // const(P)
	// seen is the freshness ledger: adom of the initial instance plus the
	// fresh values of every event. Every other value of an event is a
	// constant of P or a value of the instance it fires on (bodies are
	// safe, a deletion needs an existing key), so const(P) ∪ seen is
	// exactly const(P) ∪ ⋃ adom(Iᵢ) over the instances so far.
	seen  data.ValueSet
	fresh *data.FreshSource

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
	r.cur, r.base = r.Initial, r.Initial
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
// initial instance. A version the run does not keep is rebuilt from the
// nearest kept one before it, by redoing at most keepEvery-1 steps'
// effects.
func (r *Run) InstanceAt(i int) *schema.Instance {
	r.settle()
	switch {
	case i < 0:
		return r.Initial
	case i == len(r.Steps)-1:
		return r.cur
	case i == r.released-1:
		return r.base
	case r.Steps[i].Instance != nil:
		return r.Steps[i].Instance
	}
	return r.Cursor().Version(i)
}

// Current returns the latest instance of the run.
func (r *Run) Current() *schema.Instance {
	r.settle()
	return r.cur
}

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
	r.settle()
	if err := r.check(e); err != nil {
		return err
	}
	next, effects, err := Apply(r.cur, e, r.Prog.Schema, r.conds())
	if err != nil {
		return err
	}
	r.record(e)
	r.cur = next
	r.Steps = append(r.Steps, Step{Event: e, Instance: next, Effects: effects})
	r.prof.RuleFired(e.Rule.Name, string(e.Peer()))
	return nil
}

// check tests the run conditions of appending e to the run as it stands:
// its body holds on the current instance, and its fresh values are fresh
// and pairwise distinct. The applicability of its updates is Apply's to
// check.
func (r *Run) check(e *Event) error {
	vi := r.viewNow(e.Peer())
	l := e.Rule.Layout()
	var satisfied bool
	if r.prof == nil {
		satisfied = l.Satisfied(vi, e.vals)
	} else {
		start := time.Now()
		satisfied = l.Satisfied(vi, e.vals)
		r.prof.RuleReplay(e.Rule.Name, string(e.Peer()), time.Since(start).Nanoseconds())
	}
	if !satisfied {
		return fmt.Errorf("program: event %s: body not satisfied at step %d", e, len(r.Steps))
	}
	for i, fs := range l.Fresh {
		v := e.vals[fs]
		if v.IsNull() {
			return fmt.Errorf("program: event %s: fresh variable bound to ⊥", e)
		}
		if !r.Fresh(v) {
			return fmt.Errorf("program: event %s: value %s is not globally fresh", e, v)
		}
		for _, prev := range l.Fresh[:i] {
			if e.vals[prev] == v {
				return fmt.Errorf("program: event %s: fresh variables share value %s", e, v)
			}
		}
	}
	return nil
}

// viewNow is ViewAt of the current instance, as it stands: a replay's
// transient is not settled first.
func (r *Run) viewNow(p schema.Peer) *schema.ViewInstance {
	return schema.ViewOf(r.cur, r.Prog.Schema, p).CountConds(r.conds())
}

// record adds an appended event's fresh values to the freshness ledger.
func (r *Run) record(e *Event) {
	for _, fs := range e.Rule.Layout().Fresh {
		r.seen.Add(e.vals[fs])
	}
}

// Grow makes room for n more steps, so appending a known number of events
// (a replay) grows the step list once, and sizes the freshness ledger for
// one fresh value per event.
func (r *Run) Grow(n int) {
	r.Steps = slices.Grow(r.Steps, n)
	seen := make(data.ValueSet, len(r.seen)+n)
	maps.Copy(seen, r.seen)
	r.seen = seen
}

// Truncate discards all events after the first n, restoring the run to the
// state it had before they were appended: the freshness ledger forgets the
// fresh values of the dropped events, which no earlier instance holds. It
// is the O(dropped)-cost inverse of Append that the backtracking searches
// rely on (rebuilding the prefix would re-check every body and re-apply
// every event).
//
// Released steps are never dropped: n must be at least the released
// length.
func (r *Run) Truncate(n int) {
	if n < r.released || n > len(r.Steps) {
		panic(fmt.Sprintf("program: Truncate(%d) out of range [%d,%d]", n, r.released, len(r.Steps)))
	}
	r.settle()
	for i := len(r.Steps) - 1; i >= n; i-- {
		e := r.Steps[i].Event
		for _, fs := range e.Rule.Layout().Fresh {
			delete(r.seen, e.vals[fs])
		}
		r.Steps[i] = Step{} // release the instance
	}
	r.Steps = r.Steps[:n]
	if n == r.released {
		r.cur = r.base
	} else {
		r.cur = r.Steps[n-1].Instance
	}
}

// Clone returns an independent copy of the run: appending to or truncating
// either leaves the other unchanged. The copy shares the immutable events,
// instances and effects and the profiler scope, copies the step list and
// the freshness ledger, and draws NextFresh values from where the
// original's source stands.
func (r *Run) Clone() *Run {
	r.settle()
	c := *r
	c.Steps = slices.Clone(r.Steps)
	c.seen = maps.Clone(r.seen)
	c.fresh = r.fresh.Clone()
	return &c
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
	r.settle()
	for _, rl := range r.Prog.Rules() {
		vi := r.viewNow(rl.Peer)
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
		r.settle()
		vi := r.viewNow(c.Rule.Peer)
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
	e, err := NewEvent(c.Rule, val)
	if err != nil {
		return nil, err
	}
	if err := r.Append(e); err != nil {
		return nil, err
	}
	return e, nil
}

// FireRule fires the named rule with the given body bindings, a convenience
// for examples and tests. A binding must name a variable of the rule.
func (r *Run) FireRule(name string, bindings map[string]data.Value) (*Event, error) {
	rl := r.Prog.Rule(name)
	if rl == nil {
		return nil, fmt.Errorf("program: no rule named %s", name)
	}
	l := rl.Layout()
	val := make(query.Valuation, len(bindings))
	for k, v := range bindings {
		if _, ok := l.Index(k); !ok {
			return nil, fmt.Errorf("program: rule %s has no variable %s", name, k)
		}
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

// Fresh reports whether v may be bound to a head-only variable of the next
// event: v is not ⊥, not a constant of the program, and absent from the
// initial instance and every instance of the run so far.
func (r *Run) Fresh(v data.Value) bool {
	return !v.IsNull() && !r.consts.Has(v) && !r.seen.Has(v)
}

// NextFresh returns a value that is globally fresh for this run.
func (r *Run) NextFresh() data.Value {
	for {
		if v := r.fresh.Next(); r.Fresh(v) {
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
