package rule

import (
	"fmt"

	"collabwf/internal/query"
	"collabwf/internal/schema"
)

// IsNormalForm reports whether the rule satisfies the normal form of
// Proposition 2.3: (i) every deletion −Key_R@q(x) in the head is witnessed
// by a positive body literal R@q(x, ū), and (ii) the body contains no
// negative relational literal ¬R@q(x, ū) and no positive key literal
// Key_R@q(x).
func IsNormalForm(r *Rule) bool {
	for _, l := range r.Body {
		switch l := l.(type) {
		case query.Atom:
			if l.Neg {
				return false
			}
		case query.KeyAtom:
			if !l.Neg {
				return false
			}
		}
	}
	for _, u := range r.Head {
		d, ok := u.(Delete)
		if !ok {
			continue
		}
		if !hasPositiveAtomWithKey(r.Body, d.Rel, d.Key) {
			return false
		}
	}
	return true
}

func hasPositiveAtomWithKey(q query.Query, rel string, key query.Term) bool {
	for _, l := range q {
		a, ok := l.(query.Atom)
		if ok && !a.Neg && a.Rel == rel && len(a.Args) > 0 && a.Args[0] == key {
			return true
		}
	}
	return false
}

// Normalize converts the given rules into normal form (Proposition 2.3).
// Every produced rule records the name of the rule it was derived from in
// its Origin field, realizing the mapping θ of the proposition: ρ is a run
// of P iff the event-wise θ-preimage run of the normalized program exists
// with the same peers and instances.
func Normalize(rules []*Rule, s *schema.Collaborative) ([]*Rule, error) {
	var out []*Rule
	for _, r := range rules {
		normalized, err := normalizeRule(r, s)
		if err != nil {
			return nil, err
		}
		out = append(out, normalized...)
	}
	return out, nil
}

func normalizeRule(r *Rule, s *schema.Collaborative) ([]*Rule, error) {
	origin := r.Origin
	if origin == "" {
		origin = r.Name
	}
	fresh := newFreshVars(r)

	base := &Rule{Name: r.Name, Peer: r.Peer, Head: append([]Update(nil), r.Head...), Origin: origin}
	base.Body = append(query.Query(nil), r.Body...)

	// (i) Make deletions explicit: add a positive witness atom for every
	// deletion lacking one.
	for _, u := range base.Head {
		d, ok := u.(Delete)
		if !ok {
			continue
		}
		if hasPositiveAtomWithKey(base.Body, d.Rel, d.Key) {
			continue
		}
		v, ok := s.View(r.Peer, d.Rel)
		if !ok {
			return nil, fmt.Errorf("rule %s: deletion of %s, not visible at %s", r.Name, d.Rel, r.Peer)
		}
		args := make([]query.Term, v.Arity())
		args[0] = d.Key
		for i := 1; i < len(args); i++ {
			args[i] = query.V(fresh.next())
		}
		base.Body = append(base.Body, query.Atom{Rel: d.Rel, Args: args})
	}

	// (ii) Eliminate positive key literals and negative relational
	// literals, case-splitting the latter.
	work := []*Rule{base}
	var done []*Rule
	serial := 0
	for len(work) > 0 {
		cur := work[0]
		work = work[1:]
		idx, lit := firstOffending(cur.Body)
		if idx < 0 {
			done = append(done, cur)
			continue
		}
		switch l := lit.(type) {
		case query.KeyAtom: // positive Key_R(x) → R(x, z̄)
			v, ok := s.View(cur.Peer, l.Rel)
			if !ok {
				return nil, fmt.Errorf("rule %s: key literal over %s, not visible at %s", r.Name, l.Rel, cur.Peer)
			}
			args := make([]query.Term, v.Arity())
			args[0] = l.Arg
			for i := 1; i < len(args); i++ {
				args[i] = query.V(fresh.next())
			}
			nr := cloneRuleReplacing(cur, idx, []query.Literal{query.Atom{Rel: l.Rel, Args: args}})
			work = append(work, nr)
		case query.Atom: // negative ¬R(x, ū) → case split
			// Case (a): no tuple with this key at all.
			caseA := cloneRuleReplacing(cur, idx, []query.Literal{
				query.KeyAtom{Neg: true, Rel: l.Rel, Arg: l.Args[0]},
			})
			serial++
			caseA.Name = fmt.Sprintf("%s#nf%d", r.Name, serial)
			work = append(work, caseA)
			// Case (b): a tuple with this key exists but differs from ū
			// on some attribute A ≠ K.
			for i := 1; i < len(l.Args); i++ {
				args := make([]query.Term, len(l.Args))
				args[0] = l.Args[0]
				for j := 1; j < len(args); j++ {
					args[j] = query.V(fresh.next())
				}
				caseB := cloneRuleReplacing(cur, idx, []query.Literal{
					query.Atom{Rel: l.Rel, Args: args},
					query.Compare{Neg: true, L: l.Args[i], R: args[i]},
				})
				serial++
				caseB.Name = fmt.Sprintf("%s#nf%d", r.Name, serial)
				work = append(work, caseB)
			}
		}
	}
	return done, nil
}

// firstOffending locates the first literal violating normal form condition
// (ii): a negative relational literal or a positive key literal.
func firstOffending(q query.Query) (int, query.Literal) {
	for i, l := range q {
		switch l := l.(type) {
		case query.Atom:
			if l.Neg {
				return i, l
			}
		case query.KeyAtom:
			if !l.Neg {
				return i, l
			}
		}
	}
	return -1, nil
}

func cloneRuleReplacing(r *Rule, idx int, repl []query.Literal) *Rule {
	body := make(query.Query, 0, len(r.Body)-1+len(repl))
	body = append(body, r.Body[:idx]...)
	body = append(body, repl...)
	body = append(body, r.Body[idx+1:]...)
	return &Rule{Name: r.Name, Peer: r.Peer, Head: r.Head, Body: body, Origin: r.Origin}
}

// freshVars hands out variable names unused by a rule.
type freshVars struct {
	used map[string]struct{}
	n    int
}

func newFreshVars(r *Rule) *freshVars {
	used := make(map[string]struct{})
	for _, v := range r.Layout().Vars {
		used[v] = struct{}{}
	}
	return &freshVars{used: used}
}

func (f *freshVars) next() string {
	for {
		f.n++
		name := fmt.Sprintf("z%d", f.n)
		if _, taken := f.used[name]; !taken {
			f.used[name] = struct{}{}
			return name
		}
	}
}
