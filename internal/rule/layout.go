package rule

import (
	"slices"

	"collabwf/internal/data"
	"collabwf/internal/query"
	"collabwf/internal/schema"
)

// Layout is a rule compiled to slots. An instantiation νr of the rule is a
// valuation of its fixed, finite variable set, so it is stored as one
// value per variable, in the order of Vars; every term of the head, the
// body and K(R, e) is compiled to the index of its variable's slot or to
// its constant. A Layout is built once per rule (Rule.Layout) and shared:
// callers must not modify it.
type Layout struct {
	// Vars are the rule's variables, body and head, sorted by name: slot i
	// holds the value of Vars[i].
	Vars []string
	// Body is the body, literal for literal.
	Body []SlotLiteral
	// Head is the head, update for update.
	Head []SlotUpdate
	// Keys are the terms whose values are K(R, e): the first argument of
	// every body atom, the argument of every key literal and the key of
	// every head update, in that order, each (relation, term) pair once.
	Keys []KeySlot
	// Fresh are the slots of FreshVars, in its order.
	Fresh []int
}

// Slot is a compiled term: the index of a variable's slot, or the
// constant Const when Index is negative.
type Slot struct {
	Index int
	Const data.Value
}

// Get returns the term's value under the slot values vals.
func (s Slot) Get(vals []data.Value) data.Value {
	if s.Index < 0 {
		return s.Const
	}
	return vals[s.Index]
}

// LiteralKind tells the three kinds of body literal apart.
type LiteralKind uint8

const (
	// AtomLiteral is (¬)R@p(x̄), with Args the tuple.
	AtomLiteral LiteralKind = iota
	// KeyLiteral is (¬)Key_R@p(y), with Args[0] the argument.
	KeyLiteral
	// CompareLiteral is x = y or x ≠ y (Neg), with Args the two sides.
	CompareLiteral
)

// SlotLiteral is a body literal over slots.
type SlotLiteral struct {
	Kind LiteralKind
	Neg  bool
	Rel  string
	Args []Slot
}

// SlotUpdate is a head update over slots: +R@p(Args), or −Key_R@p(Args[0])
// when Delete is set. Args[0] is the key either way.
type SlotUpdate struct {
	Delete bool
	Rel    string
	Args   []Slot
}

// KeySlot is one term of K(R, e): its value is a key of Rel in the event.
type KeySlot struct {
	Rel string
	Key Slot
}

// Layout returns the rule compiled to slots. It is built on first use and
// memoized like the rule's other caches.
func (r *Rule) Layout() *Layout {
	r.layoutOnce.Do(func() { r.layoutCache = r.layout() })
	return r.layoutCache
}

func (r *Rule) layout() *Layout {
	set := make(map[string]struct{})
	for _, l := range r.Body {
		l.Vars(set)
	}
	for _, u := range r.Head {
		u.Vars(set)
	}
	l := &Layout{Vars: make([]string, 0, len(set))}
	for v := range set {
		l.Vars = append(l.Vars, v)
	}
	slices.Sort(l.Vars)
	slot := func(t query.Term) Slot {
		if !t.IsVar {
			return Slot{Index: -1, Const: t.Const}
		}
		i, _ := l.Index(t.Var)
		return Slot{Index: i}
	}
	slots := func(ts ...query.Term) []Slot {
		out := make([]Slot, len(ts))
		for i, t := range ts {
			out[i] = slot(t)
		}
		return out
	}
	addKey := func(rel string, t query.Term) {
		k := KeySlot{Rel: rel, Key: slot(t)}
		if !slices.Contains(l.Keys, k) {
			l.Keys = append(l.Keys, k)
		}
	}
	for _, lit := range r.Body {
		switch lit := lit.(type) {
		case query.Atom:
			l.Body = append(l.Body, SlotLiteral{Kind: AtomLiteral, Neg: lit.Neg, Rel: lit.Rel, Args: slots(lit.Args...)})
			if len(lit.Args) > 0 {
				addKey(lit.Rel, lit.Args[0])
			}
		case query.KeyAtom:
			l.Body = append(l.Body, SlotLiteral{Kind: KeyLiteral, Neg: lit.Neg, Rel: lit.Rel, Args: slots(lit.Arg)})
			addKey(lit.Rel, lit.Arg)
		case query.Compare:
			l.Body = append(l.Body, SlotLiteral{Kind: CompareLiteral, Neg: lit.Neg, Args: slots(lit.L, lit.R)})
		}
	}
	for _, u := range r.Head {
		switch u := u.(type) {
		case Insert:
			l.Head = append(l.Head, SlotUpdate{Rel: u.Rel, Args: slots(u.Args...)})
		case Delete:
			l.Head = append(l.Head, SlotUpdate{Delete: true, Rel: u.Rel, Args: slots(u.Key)})
		}
		addKey(u.Relation(), u.KeyTerm())
	}
	for _, v := range r.FreshVars() {
		i, _ := l.Index(v)
		l.Fresh = append(l.Fresh, i)
	}
	return l
}

// Index returns the slot of variable name, and false when the rule has no
// such variable.
func (l *Layout) Index(name string) (int, bool) {
	return slices.BinarySearch(l.Vars, name)
}

// Satisfied reports whether the view instance satisfies the body under the
// total valuation vals: Query.Satisfied over slots, used to re-check an
// event when it is appended or replayed.
func (l *Layout) Satisfied(vi *schema.ViewInstance, vals []data.Value) bool {
	for _, lit := range l.Body {
		var ok bool
		switch lit.Kind {
		case AtomLiteral:
			// The ground tuple is only compared, so it lives on the stack
			// for the arities relations have in practice.
			var buf [8]data.Value
			ground := data.Tuple(buf[:0])
			for _, a := range lit.Args {
				ground = append(ground, a.Get(vals))
			}
			tup, found := vi.Get(lit.Rel, ground.Key())
			ok = found && tup.Equal(ground)
		case KeyLiteral:
			ok = vi.HasKey(lit.Rel, lit.Args[0].Get(vals))
		case CompareLiteral:
			ok = lit.Args[0].Get(vals) == lit.Args[1].Get(vals)
		}
		if ok == lit.Neg {
			return false
		}
	}
	return true
}
