// Package query implements full conjunctive queries with negation (FCQ¬,
// Section 2 of the paper), the bodies of workflow rules. A query is a
// conjunction of literals over a peer's view schema D@p:
//
//	R@p(x̄)   ¬R@p(x̄)   Key_R@p(y)   ¬Key_R@p(y)   x = y   x ≠ y
//
// subject to the safety condition that every variable occurs in a positive
// relational or key literal. Evaluation enumerates all satisfying
// valuations over a view instance I@p.
package query

import (
	"fmt"
	"sort"
	"strings"

	"collabwf/internal/data"
	"collabwf/internal/schema"
)

// Term is a variable or a constant.
type Term struct {
	IsVar bool
	Var   string
	Const data.Value
}

// V returns a variable term.
func V(name string) Term { return Term{IsVar: true, Var: name} }

// C returns a constant term.
func C(v data.Value) Term { return Term{Const: v} }

// String renders the term; constants are quoted, ⊥ renders as null.
func (t Term) String() string {
	if t.IsVar {
		return t.Var
	}
	if t.Const.IsNull() {
		return "null"
	}
	return fmt.Sprintf("%q", string(t.Const))
}

// Valuation maps variables to domain values.
type Valuation map[string]data.Value

// Clone copies the valuation.
func (v Valuation) Clone() Valuation {
	out := make(Valuation, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}

// Apply resolves a term under the valuation; unbound variables resolve to
// the second return value false.
func (v Valuation) Apply(t Term) (data.Value, bool) {
	if !t.IsVar {
		return t.Const, true
	}
	val, ok := v[t.Var]
	return val, ok
}

// String renders the valuation deterministically.
func (v Valuation) String() string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s↦%s", k, v[k])
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Literal is one conjunct of an FCQ¬ query.
type Literal interface {
	// Vars adds the literal's variables to set.
	Vars(set map[string]struct{})
	// binds reports whether the literal can bind variables (positive
	// relational or key literal).
	binds() bool
	// String renders the literal.
	String() string
}

// Atom is (¬)R@p(x̄): a relational literal over the view R@p.
type Atom struct {
	Neg  bool
	Rel  string
	Args []Term
}

// KeyAtom is (¬)Key_R@p(y): membership of y in the key projection of R@p.
type KeyAtom struct {
	Neg bool
	Rel string
	Arg Term
}

// Compare is x = y or x ≠ y between two terms.
type Compare struct {
	Neg  bool // true for ≠
	L, R Term
}

// Vars implements Literal.
func (a Atom) Vars(set map[string]struct{}) {
	for _, t := range a.Args {
		if t.IsVar {
			set[t.Var] = struct{}{}
		}
	}
}

// Vars implements Literal.
func (k KeyAtom) Vars(set map[string]struct{}) {
	if k.Arg.IsVar {
		set[k.Arg.Var] = struct{}{}
	}
}

// Vars implements Literal.
func (c Compare) Vars(set map[string]struct{}) {
	if c.L.IsVar {
		set[c.L.Var] = struct{}{}
	}
	if c.R.IsVar {
		set[c.R.Var] = struct{}{}
	}
}

func (a Atom) binds() bool    { return !a.Neg }
func (k KeyAtom) binds() bool { return !k.Neg }
func (Compare) binds() bool   { return false }

// String implements Literal.
func (a Atom) String() string {
	args := make([]string, len(a.Args))
	for i, t := range a.Args {
		args[i] = t.String()
	}
	s := fmt.Sprintf("%s(%s)", a.Rel, strings.Join(args, ", "))
	if a.Neg {
		return "not " + s
	}
	return s
}

// String implements Literal.
func (k KeyAtom) String() string {
	s := fmt.Sprintf("key %s(%s)", k.Rel, k.Arg)
	if k.Neg {
		return "not " + s
	}
	return s
}

// String implements Literal.
func (c Compare) String() string {
	op := "="
	if c.Neg {
		op = "!="
	}
	return fmt.Sprintf("%s %s %s", c.L, op, c.R)
}

// Query is an FCQ¬ query: a conjunction of literals.
type Query []Literal

// String renders the query; the empty query renders as "true".
func (q Query) String() string {
	if len(q) == 0 {
		return "true"
	}
	parts := make([]string, len(q))
	for i, l := range q {
		parts[i] = l.String()
	}
	return strings.Join(parts, ", ")
}

// Vars returns the sorted variables of the query.
func (q Query) Vars() []string {
	set := make(map[string]struct{})
	for _, l := range q {
		l.Vars(set)
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// CheckSafe verifies the safety condition: every variable occurs in a
// positive relational or key literal.
func (q Query) CheckSafe() error {
	bound := make(map[string]struct{})
	for _, l := range q {
		if l.binds() {
			l.Vars(bound)
		}
	}
	all := make(map[string]struct{})
	for _, l := range q {
		l.Vars(all)
	}
	for v := range all {
		if _, ok := bound[v]; !ok {
			return fmt.Errorf("query: unsafe variable %s (occurs in no positive literal)", v)
		}
	}
	return nil
}

// CheckSchema verifies that every relational literal refers to a view of the
// peer with the right arity.
func (q Query) CheckSchema(s *schema.Collaborative, p schema.Peer) error {
	for _, l := range q {
		switch l := l.(type) {
		case Atom:
			v, ok := s.View(p, l.Rel)
			if !ok {
				return fmt.Errorf("query: peer %s has no view of %s", p, l.Rel)
			}
			if len(l.Args) != v.Arity() {
				return fmt.Errorf("query: literal %s has arity %d, view has %d", l, len(l.Args), v.Arity())
			}
		case KeyAtom:
			if _, ok := s.View(p, l.Rel); !ok {
				return fmt.Errorf("query: peer %s has no view of %s", p, l.Rel)
			}
		}
	}
	return nil
}

// EvalStats accumulates the work of Eval calls collected through
// EvalCollect: literal evaluations entered (a binder re-entered under a new
// parent binding counts again — it is new work), key-based fast-path
// lookups, tuples iterated by relation scans, and satisfying valuations
// produced. Rel attributes scanned tuples to their relation; it is allocated
// lazily on the first scan, so bodies that resolve entirely through key
// lookups never allocate.
type EvalStats struct {
	Literals   int64
	KeyLookups int64
	Tuples     int64
	Valuations int64
	Rel        map[string]int64
}

// scanned counts one tuple iterated while scanning rel.
func (s *EvalStats) scanned(rel string) {
	s.Tuples++
	if s.Rel == nil {
		s.Rel = make(map[string]int64, 4)
	}
	s.Rel[rel]++
}

// Eval enumerates every valuation of the query's variables under which the
// view instance satisfies the query. The result is deterministic: bindings
// are explored in sorted tuple order. The limit caps the number of returned
// valuations (0 means no cap).
func (q Query) Eval(vi *schema.ViewInstance, limit int) []Valuation {
	return q.EvalCollect(vi, limit, nil)
}

// EvalCollect is Eval with cost collection: when es is non-nil every literal
// evaluation, key lookup, scanned tuple and produced valuation is counted
// into it. A nil es takes the branch-free accounting skips and nothing else,
// so Eval and the profiler-disabled engine pay only the es != nil tests.
func (q Query) EvalCollect(vi *schema.ViewInstance, limit int, es *EvalStats) []Valuation {
	return q.EvalSeeded(vi, nil, limit, es)
}

// EvalSeeded is EvalCollect started from the partial valuation seed instead
// of the empty one: it returns the satisfying valuations that extend seed,
// each including seed's bindings, in the order EvalCollect would produce
// them. A literal whose key the seed binds is a key lookup, and a tuple
// that disagrees with a seeded variable prunes its branch, so completing a
// caller's partial binding with limit 1 costs the search the binding
// leaves open, not an enumeration of the whole view. Seed is not modified;
// a nil seed is the empty valuation.
func (q Query) EvalSeeded(vi *schema.ViewInstance, seed Valuation, limit int, es *EvalStats) []Valuation {
	// Partition into binders (positive atoms/key atoms) and filters.
	var binders, filters []Literal
	for _, l := range q {
		if l.binds() {
			binders = append(binders, l)
		} else {
			filters = append(filters, l)
		}
	}
	// The search never writes a valuation it was handed: unify and the
	// key scan extend copies, so seed itself can start it.
	var out []Valuation
	var rec func(i int, val Valuation) bool
	rec = func(i int, val Valuation) bool {
		if i == len(binders) {
			for _, f := range filters {
				if es != nil {
					es.Literals++
				}
				if !evalFilter(f, vi, val) {
					return true
				}
			}
			if es != nil {
				es.Valuations++
			}
			out = append(out, val.Clone())
			return limit == 0 || len(out) < limit
		}
		switch l := binders[i].(type) {
		case Atom:
			// Key-based lookup: when the key term is already bound (or a
			// constant), the tuple is fetched directly instead of
			// scanning the relation.
			if len(l.Args) > 0 {
				if k, bound := val.Apply(l.Args[0]); bound {
					if es != nil {
						es.Literals++
						es.KeyLookups++
					}
					if t, ok := vi.Get(l.Rel, k); ok {
						if next, ok := unify(l.Args, t, val); ok {
							if !rec(i+1, next) {
								return false
							}
						}
					}
					return true
				}
			}
			if es != nil {
				es.Literals++
			}
			more := true
			vi.Each(l.Rel, func(t data.Tuple) bool {
				if es != nil {
					es.scanned(l.Rel)
				}
				if next, ok := unify(l.Args, t, val); ok {
					more = rec(i+1, next)
				}
				return more
			})
			return more
		case KeyAtom:
			if v, ok := val.Apply(l.Arg); ok {
				if es != nil {
					es.Literals++
					es.KeyLookups++
				}
				if vi.HasKey(l.Rel, v) {
					return rec(i+1, val)
				}
				return true
			}
			if es != nil {
				es.Literals++
			}
			more := true
			vi.Each(l.Rel, func(t data.Tuple) bool {
				if es != nil {
					es.scanned(l.Rel)
				}
				next := val.Clone()
				next[l.Arg.Var] = t.Key()
				more = rec(i+1, next)
				return more
			})
			return more
		}
		return true
	}
	rec(0, seed)
	return out
}

// Holds reports whether the query has at least one satisfying valuation on
// the view instance.
func (q Query) Holds(vi *schema.ViewInstance) bool {
	return len(q.Eval(vi, 1)) > 0
}

// Satisfied reports whether the view instance satisfies the query under the
// given (total) valuation — used to re-check event applicability when
// replaying subruns.
func (q Query) Satisfied(vi *schema.ViewInstance, val Valuation) bool {
	for _, l := range q {
		switch l := l.(type) {
		case Atom:
			if !evalAtomGround(l, vi, val) {
				return false
			}
		default:
			if !evalFilter(l, vi, val) {
				return false
			}
		}
	}
	return true
}

// unify extends val by matching the atom's arguments against tuple t. The
// arguments val already determines (constants and bound variables) are
// compared first, so a tuple that disagrees with any of them is rejected
// without allocating; only a match copies val. A variable repeated among
// the unbound arguments, as in R(x, x), is checked while binding.
func unify(args []Term, t data.Tuple, val Valuation) (Valuation, bool) {
	if len(args) != len(t) {
		return nil, false
	}
	for i, a := range args {
		if v, ok := val.Apply(a); ok && v != t[i] {
			return nil, false
		}
	}
	next := val.Clone()
	for i, a := range args {
		if !a.IsVar {
			continue
		}
		if v, ok := next[a.Var]; ok {
			if v != t[i] {
				return nil, false
			}
			continue
		}
		next[a.Var] = t[i]
	}
	return next, true
}

func evalAtomGround(a Atom, vi *schema.ViewInstance, val Valuation) bool {
	ground := make(data.Tuple, len(a.Args))
	for i, t := range a.Args {
		v, ok := val.Apply(t)
		if !ok {
			return false
		}
		ground[i] = v
	}
	tup, ok := vi.Get(a.Rel, ground.Key())
	match := ok && tup.Equal(ground)
	return match != a.Neg
}

func evalFilter(l Literal, vi *schema.ViewInstance, val Valuation) bool {
	switch l := l.(type) {
	case Atom:
		return evalAtomGround(l, vi, val)
	case KeyAtom:
		v, ok := val.Apply(l.Arg)
		if !ok {
			return false
		}
		return vi.HasKey(l.Rel, v) != l.Neg
	case Compare:
		lv, lok := val.Apply(l.L)
		rv, rok := val.Apply(l.R)
		if !lok || !rok {
			return false
		}
		return (lv == rv) != l.Neg
	}
	return false
}
