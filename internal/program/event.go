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
// of its variables. The grounded body and updates are precomputed.
type Event struct {
	Rule *rule.Rule
	Val  query.Valuation
	// Updates are the grounded head updates in head order.
	Updates []GroundUpdate
	// keys is K(R, e) for every relation R, sorted by (relation, key).
	keys []RelKey
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
// variable of the rule. The event adopts val: it keeps the map itself, so
// the caller must not modify it afterwards. Run.Fire and the trace and WAL
// decoders hand over a valuation they have just built.
func NewEvent(r *rule.Rule, val query.Valuation) (*Event, error) {
	ground := func(t query.Term) (data.Value, error) {
		v, ok := val.Apply(t)
		if !ok {
			return data.Null, fmt.Errorf("program: event over %s: unbound variable %s", r.Name, t)
		}
		return v, nil
	}
	e := &Event{Rule: r, Val: val, Updates: make([]GroundUpdate, 0, len(r.Head))}
	for _, u := range r.Head {
		switch u := u.(type) {
		case rule.Insert:
			args := make(data.Tuple, len(u.Args))
			for i, t := range u.Args {
				v, err := ground(t)
				if err != nil {
					return nil, err
				}
				args[i] = v
			}
			e.Updates = append(e.Updates, GroundUpdate{Rel: u.Rel, Key: args.Key(), Args: args})
		case rule.Delete:
			k, err := ground(u.Key)
			if err != nil {
				return nil, err
			}
			e.Updates = append(e.Updates, GroundUpdate{IsDelete: true, Rel: u.Rel, Key: k})
		}
	}
	// Verify body variables are bound too (Satisfied would silently fail).
	for _, v := range r.BodyVars() {
		if _, ok := val[v]; !ok {
			return nil, fmt.Errorf("program: event over %s: unbound body variable %s", r.Name, v)
		}
	}
	e.computeKeys()
	return e, nil
}

// MustEvent is NewEvent panicking on error.
func MustEvent(r *rule.Rule, val query.Valuation) *Event {
	e, err := NewEvent(r, val)
	if err != nil {
		panic(err)
	}
	return e
}

// computeKeys fills K(R, e): k occurs as a key of R in e if it occurs in a
// body literal R@q(k, ū) or ¬Key_R@q(k), or in a head update of R
// (Section 4). Positive key literals and negative relational literals do
// not occur in normal-form programs, but their keys are included too so the
// definition degrades gracefully on non-normal-form rules.
func (e *Event) computeKeys() {
	// Collected on the stack, then kept at their exact length.
	var buf [8]RelKey
	keys := buf[:0]
	for _, l := range e.Rule.Body {
		switch l := l.(type) {
		case query.Atom:
			if len(l.Args) == 0 {
				continue
			}
			if v, ok := e.Val.Apply(l.Args[0]); ok {
				keys = addKey(keys, l.Rel, v)
			}
		case query.KeyAtom:
			if v, ok := e.Val.Apply(l.Arg); ok {
				keys = addKey(keys, l.Rel, v)
			}
		}
	}
	for _, u := range e.Updates {
		keys = addKey(keys, u.Rel, u.Key)
	}
	slices.SortFunc(keys, func(a, b RelKey) int {
		if c := cmp.Compare(a.Rel, b.Rel); c != 0 {
			return c
		}
		return cmp.Compare(a.Key, b.Key)
	})
	e.keys = append(make([]RelKey, 0, len(keys)), keys...)
}

// addKey adds (rel, k) to keys unless it is there already.
func addKey(keys []RelKey, rel string, k data.Value) []RelKey {
	for _, rk := range keys {
		if rk.Rel == rel && rk.Key == k {
			return keys
		}
	}
	return append(keys, RelKey{Rel: rel, Key: k})
}

// Peer returns the peer performing the event.
func (e *Event) Peer() schema.Peer { return e.Rule.Peer }

// Keys returns K(R, e) for every relation R, as (relation, key) pairs
// sorted by relation, then key. The list is computed once, when the event
// is built, and shared: callers must not modify it.
func (e *Event) Keys() []RelKey { return e.keys[:len(e.keys):len(e.keys)] }

// Equal reports whether two events are the same instantiation: same rule
// name and same valuation.
func (e *Event) Equal(other *Event) bool {
	if other == nil {
		return e == nil
	}
	if e.Rule.Name != other.Rule.Name || len(e.Val) != len(other.Val) {
		return false
	}
	for k, v := range e.Val {
		if other.Val[k] != v {
			return false
		}
	}
	return true
}

// Fingerprint returns a canonical identity string for the event.
func (e *Event) Fingerprint() string {
	return e.Rule.Name + e.Val.String()
}

// String renders the event as rule[valuation].
func (e *Event) String() string {
	ups := make([]string, len(e.Updates))
	for i, u := range e.Updates {
		ups[i] = u.String()
	}
	return fmt.Sprintf("%s@%s[%s]{%s}", e.Rule.Name, e.Rule.Peer, e.Val, strings.Join(ups, ", "))
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
	if len(e.Updates) > 0 {
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
	effects := make([]Effect, 0, len(e.Updates))
	for _, u := range e.Updates {
		v, ok := s.View(e.Peer(), u.Rel)
		if !ok {
			return nil, fmt.Errorf("program: event %s updates %s, invisible at %s", e, u.Rel, e.Peer())
		}
		if u.IsDelete {
			// A peer can delete only a tuple it sees: the key must be in
			// I@p(R@p).
			t, exists := next.Get(u.Rel, u.Key)
			if !exists || !v.Sees(t, cs) {
				return nil, fmt.Errorf("program: deletion %s not applicable: key not visible at %s", u, e.Peer())
			}
			next.Delete(u.Rel, u.Key)
			effects = append(effects, Effect{Kind: Deleted, Rel: u.Rel, Key: u.Key, Before: t})
			continue
		}
		// Insertion: J = chase_K(I ∪ {R(u^⊥)}) must be valid and u must be
		// subsumed by a tuple of J@p(R@p).
		merged, before, err := next.Chase(u.Rel, v.Pad(u.Args))
		if err != nil {
			return nil, fmt.Errorf("program: insertion %s not applicable: %w", u, err)
		}
		if !v.Sees(merged, cs) || !v.Project(merged).Subsumes(u.Args) {
			return nil, fmt.Errorf("program: insertion %s not applicable: inserted tuple not subsumed by %s's view", u, e.Peer())
		}
		// Stored tuples are immutable: the effect shares merged, which the
		// chase has just stored, and before, which the instance held.
		ef := Effect{Kind: Created, Rel: u.Rel, Key: u.Key, After: merged, Filled: filled(before, merged)}
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
	if !e.Rule.Body.Satisfied(vi, e.Val) {
		return false
	}
	_, _, err := Apply(in, e, s, nil)
	return err == nil
}
