// Package program implements collaborative workflow specifications and their
// operational semantics (Section 2 of the paper): programs (finite sets of
// update rules per peer), events (rule instantiations), the transition
// relation I ⊢e J on valid global instances, and runs with per-event effect
// recording. Effects (key creations, deletions, and ⊥→value attribute
// fills) are what the explanation algorithms of Sections 3–4 consume.
package program

import (
	"fmt"
	"sort"
	"sync"

	"collabwf/internal/data"
	"collabwf/internal/query"
	"collabwf/internal/rule"
	"collabwf/internal/schema"
)

// Program is a workflow specification: a collaborative schema together with
// a workflow program (update rules for each peer).
type Program struct {
	Schema *schema.Collaborative
	rules  []*rule.Rule
	byName map[string]*rule.Rule
	byPeer map[schema.Peer][]*rule.Rule

	constOnce  sync.Once
	constCache data.ValueSet
}

// New builds a program, validating every rule against the schema. Rule
// names must be unique.
func New(s *schema.Collaborative, rules []*rule.Rule) (*Program, error) {
	p := &Program{
		Schema: s,
		byName: make(map[string]*rule.Rule, len(rules)),
		byPeer: make(map[schema.Peer][]*rule.Rule),
	}
	for _, r := range rules {
		if r.Name == "" {
			return nil, fmt.Errorf("program: rule without a name (%s)", r)
		}
		if _, dup := p.byName[r.Name]; dup {
			return nil, fmt.Errorf("program: duplicate rule name %s", r.Name)
		}
		if err := r.Validate(s); err != nil {
			return nil, fmt.Errorf("program: %w", err)
		}
		p.rules = append(p.rules, r)
		p.byName[r.Name] = r
		p.byPeer[r.Peer] = append(p.byPeer[r.Peer], r)
	}
	return p, nil
}

// MustNew is New panicking on error.
func MustNew(s *schema.Collaborative, rules []*rule.Rule) *Program {
	p, err := New(s, rules)
	if err != nil {
		panic(err)
	}
	return p
}

// Rules returns all rules in declaration order.
func (p *Program) Rules() []*rule.Rule { return p.rules }

// Rule returns the rule with the given name, or nil.
func (p *Program) Rule(name string) *rule.Rule { return p.byName[name] }

// RulesAt returns the rules of peer q in declaration order.
func (p *Program) RulesAt(q schema.Peer) []*rule.Rule { return p.byPeer[q] }

// Constants returns const(P): the set of constants used in the program's
// rules (⊥ excluded; the paper treats ⊥ separately). The set is computed
// once and shared — run construction and the bounded searches query it on
// every step — so callers must treat it as read-only.
func (p *Program) Constants() data.ValueSet {
	p.constOnce.Do(func() {
		set := data.NewValueSet()
		for _, r := range p.rules {
			set.AddAll(r.Constants())
		}
		p.constCache = set
	})
	return p.constCache
}

// MaxBodyAtoms returns the maximum number of relational facts in a rule
// body (the parameter b of Theorem 6.3).
func (p *Program) MaxBodyAtoms() int {
	m := 0
	for _, r := range p.rules {
		n := 0
		for _, l := range r.Body {
			switch l.(type) {
			case query.Atom, query.KeyAtom:
				n++
			}
		}
		m = max(m, n)
	}
	return m
}

// MaxHeadUpdates returns the maximum number of update atoms in a rule head.
func (p *Program) MaxHeadUpdates() int {
	m := 0
	for _, r := range p.rules {
		m = max(m, len(r.Head))
	}
	return m
}

// MaxRuleVars returns the maximum number of distinct variables in a rule.
func (p *Program) MaxRuleVars() int {
	m := 0
	for _, r := range p.rules {
		m = max(m, len(r.Layout().Vars))
	}
	return m
}

// NormalForm returns an equivalent normal-form program (Proposition 2.3).
// Derived rules carry the originating rule's name in their Origin field.
func (p *Program) NormalForm() (*Program, error) {
	nf, err := rule.Normalize(p.rules, p.Schema)
	if err != nil {
		return nil, err
	}
	return New(p.Schema, nf)
}

// IsNormalForm reports whether every rule is in the normal form of
// Proposition 2.3.
func (p *Program) IsNormalForm() bool {
	for _, r := range p.rules {
		if !rule.IsNormalForm(r) {
			return false
		}
	}
	return true
}

// Peers returns the peers of the schema, sorted.
func (p *Program) Peers() []schema.Peer { return p.Schema.Peers() }

// String renders the program rule by rule.
func (p *Program) String() string {
	names := make([]string, 0, len(p.byName))
	for n := range p.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		s += p.byName[n].String() + "\n"
	}
	return s
}
