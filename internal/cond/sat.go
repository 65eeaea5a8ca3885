package cond

import (
	"collabwf/internal/data"
)

// Satisfiable decides whether some tuple over the given attributes satisfies
// the conjunction of the given conditions. The decision is exact: conditions
// are (in)equalities between attributes and constants over an infinite
// domain, so after DNF expansion each clause is decided by congruence
// closure — equalities are merged with union-find, then the clause is
// satisfiable iff no disequality joins two merged terms and no two distinct
// constants were merged. Disequalities between otherwise unconstrained terms
// are always satisfiable because the domain is infinite.
func Satisfiable(conds ...Condition) bool {
	all := And{append([]Condition(nil), conds...)}
	for _, clause := range DNF(all) {
		if clauseSatisfiable(clause) {
			return true
		}
	}
	return false
}

// Valid reports whether c holds for every tuple, i.e. ¬c is unsatisfiable.
func Valid(c Condition) bool {
	return !Satisfiable(Not{c})
}

// Implies reports whether every tuple satisfying a also satisfies b.
func Implies(a, b Condition) bool {
	return !Satisfiable(a, Not{b})
}

// Equivalent reports whether a and b hold on exactly the same tuples.
func Equivalent(a, b Condition) bool {
	return Implies(a, b) && Implies(b, a)
}

// term identifies a node of the congruence graph: an attribute or a constant.
type term struct {
	isConst bool
	attr    data.Attr
	val     data.Value
}

func attrTerm(a data.Attr) term       { return term{attr: a} }
func constTerm(v data.Value) term     { return term{isConst: true, val: v} }
func (t term) equalConst(u term) bool { return t.isConst && u.isConst && t.val == u.val }

// unionFind is a simple union-find over terms.
type unionFind struct {
	parent map[term]term
}

func newUnionFind() *unionFind {
	return &unionFind{parent: make(map[term]term)}
}

func (u *unionFind) find(t term) term {
	p, ok := u.parent[t]
	if !ok {
		u.parent[t] = t
		return t
	}
	if p == t {
		return t
	}
	root := u.find(p)
	u.parent[t] = root
	return root
}

// union merges the classes of a and b, preferring a constant as
// representative so constant conflicts are detectable. It reports false if
// the merge identifies two distinct constants.
func (u *unionFind) union(a, b term) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return true
	}
	if ra.equalConst(rb) {
		return true
	}
	if ra.isConst && rb.isConst {
		return false // two distinct constants merged
	}
	if rb.isConst {
		ra, rb = rb, ra
	}
	// ra is the representative (constant if any).
	u.parent[rb] = ra
	return true
}

func literalTerms(l Literal) (term, term) {
	lhs := attrTerm(l.A)
	var rhs term
	if l.AttrRHS {
		rhs = attrTerm(l.B)
	} else {
		rhs = constTerm(l.Const)
	}
	return lhs, rhs
}

func clauseSatisfiable(clause Clause) bool {
	uf := newUnionFind()
	// Phase 1: merge equalities.
	for _, l := range clause {
		if l.Neg {
			continue
		}
		a, b := literalTerms(l)
		if !uf.union(a, b) {
			return false
		}
	}
	// Phase 2: check disequalities against the closure.
	for _, l := range clause {
		if !l.Neg {
			continue
		}
		a, b := literalTerms(l)
		if uf.find(a) == uf.find(b) {
			return false
		}
	}
	return true
}

// Simplify performs shallow constant folding: it removes True from
// conjunctions and False from disjunctions, collapses dominated nodes and
// flattens single-child And/Or. It preserves semantics exactly.
func Simplify(c Condition) Condition {
	switch c := c.(type) {
	case And:
		var kept []Condition
		for _, sub := range c.Cs {
			s := Simplify(sub)
			switch s.(type) {
			case True:
				continue
			case False:
				return False{}
			}
			kept = append(kept, s)
		}
		switch len(kept) {
		case 0:
			return True{}
		case 1:
			return kept[0]
		}
		return And{kept}
	case Or:
		var kept []Condition
		for _, sub := range c.Cs {
			s := Simplify(sub)
			switch s.(type) {
			case False:
				continue
			case True:
				return True{}
			}
			kept = append(kept, s)
		}
		switch len(kept) {
		case 0:
			return False{}
		case 1:
			return kept[0]
		}
		return Or{kept}
	case Not:
		s := Simplify(c.C)
		switch s.(type) {
		case True:
			return False{}
		case False:
			return True{}
		case Not:
			return s.(Not).C
		}
		return Not{s}
	default:
		return c
	}
}
