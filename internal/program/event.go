package program

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"collabwf/internal/cond"
	"collabwf/internal/data"
	"collabwf/internal/query"
	"collabwf/internal/rule"
	"collabwf/internal/schema"
)

// Event is a rule instantiation νr: a rule together with a total valuation
// of its variables. The valuation is one value per slot of the rule's
// Layout, in the order of its sorted variables; the grounded updates and
// K(R, e) are derived from the layout's templates when they are used.
// Events are immutable once built.
type Event struct {
	Rule *rule.Rule
	vals []data.Value
}

// RelKey is one element of K(R, e): Key occurs as a key of relation Rel in
// the event.
type RelKey struct {
	Rel string
	Key data.Value
}

// GroundUpdate is a grounded update atom.
type GroundUpdate struct {
	// IsDelete distinguishes −Key_R@p(k) from +R@p(ū).
	IsDelete bool
	Rel      string
	Key      data.Value
	// Args is the view tuple inserted (inserts only), Args[0] == Key.
	Args data.Tuple
}

// String renders the grounded update.
func (g GroundUpdate) String() string {
	if g.IsDelete {
		return fmt.Sprintf("-%s(%s)", g.Rel, g.Key)
	}
	return fmt.Sprintf("+%s%s", g.Rel, g.Args)
}

// NewEvent instantiates rule r with valuation val, which must bind every
// variable of the rule. The values are copied into the event's slots; a
// name of val that is no variable of r is dropped (Run.FireRule rejects
// one first).
func NewEvent(r *rule.Rule, val query.Valuation) (*Event, error) {
	vars := r.Layout().Vars
	vals := make([]data.Value, len(vars))
	for i, v := range vars {
		x, ok := val[v]
		if !ok {
			return nil, fmt.Errorf("program: event over %s: unbound variable %s", r.Name, v)
		}
		vals[i] = x
	}
	return &Event{Rule: r, vals: vals}, nil
}

// MustEvent is NewEvent panicking on error.
func MustEvent(r *rule.Rule, val query.Valuation) *Event {
	e, err := NewEvent(r, val)
	if err != nil {
		panic(err)
	}
	return e
}

// MakeEvent returns the event of rule r whose slot values are vals, one per
// variable of r.Layout().Vars, as a value, so a caller building many events
// at once (a recovery) can keep them in one array. The event adopts vals:
// the caller must not modify it afterwards.
func MakeEvent(r *rule.Rule, vals []data.Value) Event {
	if len(vals) != len(r.Layout().Vars) {
		panic(fmt.Sprintf("program: event over %s: %d slot values for %d variables", r.Name, len(vals), len(r.Layout().Vars)))
	}
	return Event{Rule: r, vals: vals}
}

// Vals returns the event's slot values, in the order of
// e.Rule.Layout().Vars. The slice is the event's own: callers must not
// modify it.
func (e *Event) Vals() []data.Value { return e.vals }

// Value returns the value the event binds to variable name, and false when
// the rule has no such variable.
func (e *Event) Value(name string) (data.Value, bool) {
	i, ok := e.Rule.Layout().Index(name)
	if !ok {
		return data.Null, false
	}
	return e.vals[i], true
}

// Apply resolves a term of the rule under the event's valuation, like
// query.Valuation.Apply.
func (e *Event) Apply(t query.Term) (data.Value, bool) {
	if !t.IsVar {
		return t.Const, true
	}
	return e.Value(t.Var)
}

// Valuation returns the event's valuation as a fresh map, for the edges
// that speak in maps.
func (e *Event) Valuation() query.Valuation {
	vars := e.Rule.Layout().Vars
	val := make(query.Valuation, len(vars))
	for i, v := range vars {
		val[v] = e.vals[i]
	}
	return val
}

// As returns the event of rule r that binds r's variables as e binds them:
// r is e's rule in another program, such as a synthesized view program, or
// the rule it was derived from. A variable of r that e does not bind is an
// error; a variable of e's rule that r lacks is dropped.
func (e *Event) As(r *rule.Rule) (*Event, error) {
	vars := r.Layout().Vars
	if slices.Equal(vars, e.Rule.Layout().Vars) {
		return &Event{Rule: r, vals: e.vals}, nil
	}
	vals := make([]data.Value, len(vars))
	for i, v := range vars {
		x, ok := e.Value(v)
		if !ok {
			return nil, fmt.Errorf("program: event over %s: unbound variable %s", r.Name, v)
		}
		vals[i] = x
	}
	return &Event{Rule: r, vals: vals}, nil
}

// update returns the i-th head update grounded.
func (e *Event) update(i int) GroundUpdate {
	u := e.Rule.Layout().Head[i]
	if u.Delete {
		return GroundUpdate{IsDelete: true, Rel: u.Rel, Key: u.Args[0].Get(e.vals)}
	}
	args := make(data.Tuple, len(u.Args))
	for j, a := range u.Args {
		args[j] = a.Get(e.vals)
	}
	return GroundUpdate{Rel: u.Rel, Key: args.Key(), Args: args}
}

// Updates returns the grounded head updates in head order, built on each
// call.
func (e *Event) Updates() []GroundUpdate {
	out := make([]GroundUpdate, len(e.Rule.Layout().Head))
	for i := range out {
		out[i] = e.update(i)
	}
	return out
}

// AppendKeys appends K(R, e) for every relation R to dst, as (relation,
// key) pairs sorted by relation, then key: k occurs as a key of R in e if
// it occurs in a body literal R@q(k, ū) or ¬Key_R@q(k), or in a head
// update of R (Section 4). Positive key literals and negative relational
// literals do not occur in normal-form programs, but their keys are
// included too so the definition degrades gracefully on non-normal-form
// rules. The pairs are derived from the rule's layout on each call; a
// caller walking many events reuses one buffer.
func (e *Event) AppendKeys(dst []RelKey) []RelKey {
	n := len(dst)
	keys := e.Rule.Layout().Keys
	dst = slices.Grow(dst, len(keys))
	for _, ks := range keys {
		k := RelKey{Rel: ks.Rel, Key: ks.Key.Get(e.vals)}
		if !slices.Contains(dst[n:], k) {
			dst = append(dst, k)
		}
	}
	slices.SortFunc(dst[n:], func(a, b RelKey) int {
		if c := cmp.Compare(a.Rel, b.Rel); c != 0 {
			return c
		}
		return cmp.Compare(a.Key, b.Key)
	})
	return dst
}

// Peer returns the peer performing the event.
func (e *Event) Peer() schema.Peer { return e.Rule.Peer }

// Equal reports whether two events are the same instantiation: same rule
// name and same valuation.
func (e *Event) Equal(other *Event) bool {
	if other == nil {
		return e == nil
	}
	return e.Rule.Name == other.Rule.Name &&
		slices.Equal(e.Rule.Layout().Vars, other.Rule.Layout().Vars) &&
		slices.Equal(e.vals, other.vals)
}

// Fingerprint returns a canonical identity string for the event.
func (e *Event) Fingerprint() string {
	return e.Rule.Name + e.Valuation().String()
}

// String renders the event as rule@peer[valuation]{updates}.
func (e *Event) String() string {
	ups := e.Updates()
	parts := make([]string, len(ups))
	for i, u := range ups {
		parts[i] = u.String()
	}
	return fmt.Sprintf("%s@%s[%s]{%s}", e.Rule.Name, e.Rule.Peer, e.Valuation(), strings.Join(parts, ", "))
}

// EffectKind classifies how an update changed the global instance.
type EffectKind int

const (
	// Created: the event inserted a tuple with a key that was absent —
	// the left boundary of a lifecycle.
	Created EffectKind = iota
	// Modified: the event inserted into an existing tuple, filling some
	// ⊥ attributes.
	Modified
	// Deleted: the event removed a tuple — the right boundary of a
	// lifecycle.
	Deleted
)

// String names the effect kind.
func (k EffectKind) String() string {
	switch k {
	case Created:
		return "created"
	case Modified:
		return "modified"
	case Deleted:
		return "deleted"
	}
	return "unknown"
}

// Effect records one update's observable change to the global instance.
// Before and After are the instances' own stored tuples, which are
// immutable: callers must not modify them.
type Effect struct {
	Kind EffectKind
	Rel  string
	Key  data.Value
	// Before is the full tuple before the update (nil for Created).
	Before data.Tuple
	// After is the full tuple after the update (nil for Deleted).
	After data.Tuple
	// Filled lists the attributes turned from ⊥ to a value (Modified and
	// Created), as positions into the relation schema.
	Filled []int
}

// Apply computes the transition I ⊢e J: it checks that every update of the
// event is applicable on I and returns the successor instance together with
// the recorded effects. I is not modified. Apply does not re-check the
// event's body condition; see Applicable and Run.Append for full checking.
// The visibility checks on the updated tuples count their condition
// evaluations into cs (nil = uncounted).
func Apply(in *schema.Instance, e *Event, s *schema.Collaborative, cs *cond.EvalCounts) (*schema.Instance, []Effect, error) {
	// The updates write one copy of I in place, so an event costs one
	// instance version however many updates it has.
	next := in
	if len(e.Rule.Layout().Head) > 0 {
		next = in.Clone()
	}
	effects, err := applyTo(next, e, s, cs)
	if err != nil {
		return nil, nil, err
	}
	return next, effects, nil
}

// applyTo is Apply writing the successor into next itself, which the
// caller owns. On an error next may hold some of the event's updates.
func applyTo(next *schema.Instance, e *Event, s *schema.Collaborative, cs *cond.EvalCounts) ([]Effect, error) {
	head := e.Rule.Layout().Head
	effects := make([]Effect, 0, len(head))
	for i, u := range head {
		v, ok := s.View(e.Peer(), u.Rel)
		if !ok {
			return nil, fmt.Errorf("program: event %s updates %s, invisible at %s", e, u.Rel, e.Peer())
		}
		key := u.Args[0].Get(e.vals)
		if u.Delete {
			// A peer can delete only a tuple it sees: the key must be in
			// I@p(R@p).
			t, exists := next.Get(u.Rel, key)
			if !exists || !v.Sees(t, cs) {
				return nil, fmt.Errorf("program: deletion %s not applicable: key not visible at %s", e.update(i), e.Peer())
			}
			next.Delete(u.Rel, key)
			effects = append(effects, Effect{Kind: Deleted, Rel: u.Rel, Key: key, Before: t})
			continue
		}
		// Insertion: J = chase_K(I ∪ {R(u^⊥)}) must be valid and u must be
		// subsumed by a tuple of J@p(R@p). The padded tuple u^⊥ is built
		// straight from the slots, and the chase stores it. The chase keeps
		// every non-⊥ attribute of u^⊥ and rejects a stored one that
		// conflicts, so the merged tuple subsumes u: what is left to check
		// is that p sees it.
		pad := make(data.Tuple, v.Rel.Arity())
		for j := range pad {
			pad[j] = data.Null
		}
		for j, a := range u.Args {
			pad[v.Pos(j)] = a.Get(e.vals)
		}
		merged, before, err := next.Chase(u.Rel, pad)
		if err != nil {
			return nil, fmt.Errorf("program: insertion %s not applicable: %w", e.update(i), err)
		}
		if !v.Sees(merged, cs) {
			return nil, fmt.Errorf("program: insertion %s not applicable: inserted tuple not subsumed by %s's view", e.update(i), e.Peer())
		}
		// Stored tuples are immutable: the effect shares merged, which the
		// chase has just stored, and before, which the instance held.
		ef := Effect{Kind: Created, Rel: u.Rel, Key: key, After: merged, Filled: filled(before, merged)}
		if before != nil {
			// An insertion that changes nothing is still an event, but it
			// has no effect entry content beyond the identity; record it
			// anyway so provenance sees the touch.
			ef.Kind = Modified
			ef.Before = before
		}
		effects = append(effects, ef)
	}
	return effects, nil
}

// redo writes the step's recorded effects into in: I_{i-1} becomes I_i.
// Each stored row is adopted as it is, so a redone instance shares its
// rows with the one the event first produced.
func (st *Step) redo(in *schema.Instance) {
	for _, ef := range st.Effects {
		if ef.Kind == Deleted {
			in.Delete(ef.Rel, ef.Key)
		} else {
			in.Adopt(ef.Rel, ef.After)
		}
	}
}

// filled returns the positions that are ⊥ in before (nil: absent) and set
// in after, in one allocation, or nil when there are none.
func filled(before, after data.Tuple) []int {
	n := 0
	for i := range after {
		if !after[i].IsNull() && (before == nil || before[i].IsNull()) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for i := range after {
		if !after[i].IsNull() && (before == nil || before[i].IsNull()) {
			out = append(out, i)
		}
	}
	return out
}

// Applicable reports whether event e can fire on instance I: its body must
// hold in I@p under its valuation and all updates must be applicable.
func Applicable(in *schema.Instance, e *Event, s *schema.Collaborative) bool {
	vi := schema.ViewOf(in, s, e.Peer())
	if !e.Rule.Layout().Satisfied(vi, e.vals) {
		return false
	}
	_, _, err := Apply(in, e, s, nil)
	return err == nil
}
