// Package cond implements the selection conditions of collaborative schemas.
//
// Per Section 2 of the paper, for attributes A, B and a constant a (possibly
// ⊥), "A = a" and "A = B" are elementary conditions, and a condition is a
// Boolean combination of elementary conditions. Conditions are used as the
// selections σ(R@p) of peer views.
//
// Besides evaluation on tuples, the package decides satisfiability of
// conditions (needed for the effective losslessness check of collaborative
// schemas): conditions are equality constraints over an infinite domain, so
// a DNF expansion followed by congruence closure on each disjunct is a sound
// and complete decision procedure.
package cond

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"collabwf/internal/data"
)

// EvalCounts counts condition evaluations by kind. Conditions are shared
// structural values, so the sink travels as an Eval argument: each caller
// passes the counters of the run it works for, or nil for uncounted. Nested
// conditions count each operand they visit.
type EvalCounts struct {
	True, False, EqConst, EqAttr, Not, And, Or atomic.Int64
}

// Total sums the per-kind counts.
func (c *EvalCounts) Total() int64 {
	return c.True.Load() + c.False.Load() + c.EqConst.Load() + c.EqAttr.Load() +
		c.Not.Load() + c.And.Load() + c.Or.Load()
}

// Condition is a Boolean combination of elementary conditions over the
// attributes of one relation.
type Condition interface {
	// Eval evaluates the condition on tuple t, where pos maps each
	// attribute of the relation to its position in t. cs, when non-nil,
	// receives one increment per node visited.
	Eval(pos map[data.Attr]int, t data.Tuple, cs *EvalCounts) bool
	// Attrs adds every attribute mentioned by the condition to set.
	Attrs(set map[data.Attr]struct{})
	// String renders the condition in the surface syntax.
	String() string
	// nnf pushes negations to the leaves. neg requests the negation of
	// the condition.
	nnf(neg bool) Condition
}

// True is the condition satisfied by every tuple.
type True struct{}

// False is the condition satisfied by no tuple.
type False struct{}

// EqConst is the elementary condition Attr = Const (Const may be ⊥).
type EqConst struct {
	Attr  data.Attr
	Const data.Value
}

// EqAttr is the elementary condition A = B between two attributes.
type EqAttr struct {
	A, B data.Attr
}

// Not negates a condition.
type Not struct{ C Condition }

// And is the conjunction of conditions (empty conjunction is true).
type And struct{ Cs []Condition }

// Or is the disjunction of conditions (empty disjunction is false).
type Or struct{ Cs []Condition }

// Eval implements Condition.
func (True) Eval(_ map[data.Attr]int, _ data.Tuple, cs *EvalCounts) bool {
	if cs != nil {
		cs.True.Add(1)
	}
	return true
}

// Eval implements Condition.
func (False) Eval(_ map[data.Attr]int, _ data.Tuple, cs *EvalCounts) bool {
	if cs != nil {
		cs.False.Add(1)
	}
	return false
}

// Eval implements Condition.
func (c EqConst) Eval(pos map[data.Attr]int, t data.Tuple, cs *EvalCounts) bool {
	if cs != nil {
		cs.EqConst.Add(1)
	}
	i, ok := pos[c.Attr]
	if !ok || i >= len(t) {
		return false
	}
	return t[i] == c.Const
}

// Eval implements Condition.
func (c EqAttr) Eval(pos map[data.Attr]int, t data.Tuple, cs *EvalCounts) bool {
	if cs != nil {
		cs.EqAttr.Add(1)
	}
	i, iok := pos[c.A]
	j, jok := pos[c.B]
	if !iok || !jok || i >= len(t) || j >= len(t) {
		return false
	}
	return t[i] == t[j]
}

// Eval implements Condition.
func (c Not) Eval(pos map[data.Attr]int, t data.Tuple, cs *EvalCounts) bool {
	if cs != nil {
		cs.Not.Add(1)
	}
	return !c.C.Eval(pos, t, cs)
}

// Eval implements Condition.
func (c And) Eval(pos map[data.Attr]int, t data.Tuple, cs *EvalCounts) bool {
	if cs != nil {
		cs.And.Add(1)
	}
	for _, sub := range c.Cs {
		if !sub.Eval(pos, t, cs) {
			return false
		}
	}
	return true
}

// Eval implements Condition.
func (c Or) Eval(pos map[data.Attr]int, t data.Tuple, cs *EvalCounts) bool {
	if cs != nil {
		cs.Or.Add(1)
	}
	for _, sub := range c.Cs {
		if sub.Eval(pos, t, cs) {
			return true
		}
	}
	return false
}

// Attrs implements Condition.
func (True) Attrs(map[data.Attr]struct{}) {}

// Attrs implements Condition.
func (False) Attrs(map[data.Attr]struct{}) {}

// Attrs implements Condition.
func (c EqConst) Attrs(set map[data.Attr]struct{}) { set[c.Attr] = struct{}{} }

// Attrs implements Condition.
func (c EqAttr) Attrs(set map[data.Attr]struct{}) {
	set[c.A] = struct{}{}
	set[c.B] = struct{}{}
}

// Attrs implements Condition.
func (c Not) Attrs(set map[data.Attr]struct{}) { c.C.Attrs(set) }

// Attrs implements Condition.
func (c And) Attrs(set map[data.Attr]struct{}) {
	for _, sub := range c.Cs {
		sub.Attrs(set)
	}
}

// Attrs implements Condition.
func (c Or) Attrs(set map[data.Attr]struct{}) {
	for _, sub := range c.Cs {
		sub.Attrs(set)
	}
}

func (True) String() string  { return "true" }
func (False) String() string { return "false" }

func (c EqConst) String() string {
	if c.Const.IsNull() {
		return fmt.Sprintf("%s = null", c.Attr)
	}
	return fmt.Sprintf("%s = %q", c.Attr, string(c.Const))
}

func (c EqAttr) String() string { return fmt.Sprintf("%s = %s", c.A, c.B) }

func (c Not) String() string {
	switch inner := c.C.(type) {
	case EqConst:
		if inner.Const.IsNull() {
			return fmt.Sprintf("%s != null", inner.Attr)
		}
		return fmt.Sprintf("%s != %q", inner.Attr, string(inner.Const))
	case EqAttr:
		return fmt.Sprintf("%s != %s", inner.A, inner.B)
	}
	return fmt.Sprintf("not (%s)", c.C)
}

func (c And) String() string { return joinConds(c.Cs, " and ", "true") }
func (c Or) String() string  { return joinConds(c.Cs, " or ", "false") }

func joinConds(cs []Condition, sep, empty string) string {
	if len(cs) == 0 {
		return empty
	}
	parts := make([]string, len(cs))
	for i, c := range cs {
		s := c.String()
		switch c.(type) {
		case And, Or:
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, sep)
}

// AttrsOf returns the sorted set of attributes mentioned by c — the set
// att(σ) used by the paper to define the relevant attributes att(R, q).
func AttrsOf(c Condition) []data.Attr {
	set := make(map[data.Attr]struct{})
	c.Attrs(set)
	out := make([]data.Attr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// --- Negation normal form and DNF ---

func (True) nnf(neg bool) Condition {
	if neg {
		return False{}
	}
	return True{}
}

func (False) nnf(neg bool) Condition {
	if neg {
		return True{}
	}
	return False{}
}

func (c EqConst) nnf(neg bool) Condition {
	if neg {
		return Not{c}
	}
	return c
}

func (c EqAttr) nnf(neg bool) Condition {
	if neg {
		return Not{c}
	}
	return c
}

func (c Not) nnf(neg bool) Condition { return c.C.nnf(!neg) }

func (c And) nnf(neg bool) Condition {
	subs := make([]Condition, len(c.Cs))
	for i, s := range c.Cs {
		subs[i] = s.nnf(neg)
	}
	if neg {
		return Or{subs}
	}
	return And{subs}
}

func (c Or) nnf(neg bool) Condition {
	subs := make([]Condition, len(c.Cs))
	for i, s := range c.Cs {
		subs[i] = s.nnf(neg)
	}
	if neg {
		return And{subs}
	}
	return Or{subs}
}

// NNF returns the negation normal form of c: negations appear only directly
// above elementary conditions.
func NNF(c Condition) Condition { return c.nnf(false) }

// Literal is an elementary condition or its negation, the building block of
// DNF clauses.
type Literal struct {
	// Neg negates the comparison.
	Neg bool
	// AttrRHS distinguishes A = B (true) from A = const (false).
	AttrRHS bool
	A       data.Attr
	B       data.Attr  // valid when AttrRHS
	Const   data.Value // valid when !AttrRHS
}

// Cond converts the literal back into a Condition.
func (l Literal) Cond() Condition {
	var base Condition
	if l.AttrRHS {
		base = EqAttr{l.A, l.B}
	} else {
		base = EqConst{l.A, l.Const}
	}
	if l.Neg {
		return Not{base}
	}
	return base
}

// Clause is a conjunction of literals.
type Clause []Literal

// DNF converts c into a disjunction of clauses. An empty result means the
// condition is unsatisfiable at the propositional level; a result containing
// an empty clause means it is a tautology at that level.
func DNF(c Condition) []Clause {
	return dnf(NNF(c))
}

func dnf(c Condition) []Clause {
	switch c := c.(type) {
	case True:
		return []Clause{{}}
	case False:
		return nil
	case EqConst:
		return []Clause{{Literal{A: c.Attr, Const: c.Const}}}
	case EqAttr:
		return []Clause{{Literal{AttrRHS: true, A: c.A, B: c.B}}}
	case Not:
		switch inner := c.C.(type) {
		case EqConst:
			return []Clause{{Literal{Neg: true, A: inner.Attr, Const: inner.Const}}}
		case EqAttr:
			return []Clause{{Literal{Neg: true, AttrRHS: true, A: inner.A, B: inner.B}}}
		default:
			panic("cond: DNF input not in NNF")
		}
	case And:
		acc := []Clause{{}}
		for _, sub := range c.Cs {
			subClauses := dnf(sub)
			var next []Clause
			for _, a := range acc {
				for _, b := range subClauses {
					merged := make(Clause, 0, len(a)+len(b))
					merged = append(merged, a...)
					merged = append(merged, b...)
					next = append(next, merged)
				}
			}
			acc = next
		}
		return acc
	case Or:
		var acc []Clause
		for _, sub := range c.Cs {
			acc = append(acc, dnf(sub)...)
		}
		return acc
	}
	panic(fmt.Sprintf("cond: unknown condition %T", c))
}
