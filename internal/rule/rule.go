// Package rule implements workflow update rules (Section 2 of the paper):
// datalog-style rules "Update :- Cond" at a peer p, where Cond is an FCQ¬
// query over D@p and Update is a sequence of insertion atoms +R@p(x̄) and
// deletion atoms −Key_R@p(x). The package also implements the normal form
// of Proposition 2.3.
package rule

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"collabwf/internal/data"
	"collabwf/internal/query"
	"collabwf/internal/schema"
)

// Update is an update atom at a peer: an Insert or a Delete.
type Update interface {
	// Relation returns the updated relation name.
	Relation() string
	// KeyTerm returns the term designating the key of the affected tuple.
	KeyTerm() query.Term
	// Vars adds the update's variables to set.
	Vars(set map[string]struct{})
	// String renders the update atom.
	String() string
}

// Insert is an insertion atom +R@p(x̄) over the attributes of the view R@p.
type Insert struct {
	Rel  string
	Args []query.Term
}

// Delete is a deletion atom −Key_R@p(x).
type Delete struct {
	Rel string
	Key query.Term
}

// Relation implements Update.
func (i Insert) Relation() string { return i.Rel }

// Relation implements Update.
func (d Delete) Relation() string { return d.Rel }

// KeyTerm implements Update.
func (i Insert) KeyTerm() query.Term {
	if len(i.Args) == 0 {
		return query.C(data.Null)
	}
	return i.Args[0]
}

// KeyTerm implements Update.
func (d Delete) KeyTerm() query.Term { return d.Key }

// Vars implements Update.
func (i Insert) Vars(set map[string]struct{}) {
	for _, t := range i.Args {
		if t.IsVar {
			set[t.Var] = struct{}{}
		}
	}
}

// Vars implements Update.
func (d Delete) Vars(set map[string]struct{}) {
	if d.Key.IsVar {
		set[d.Key.Var] = struct{}{}
	}
}

// String implements Update.
func (i Insert) String() string {
	args := make([]string, len(i.Args))
	for j, t := range i.Args {
		args[j] = t.String()
	}
	return fmt.Sprintf("+%s(%s)", i.Rel, strings.Join(args, ", "))
}

// String implements Update.
func (d Delete) String() string {
	return fmt.Sprintf("-%s(%s)", d.Rel, d.Key)
}

// Rule is a workflow rule at a peer.
type Rule struct {
	// Name identifies the rule within its program.
	Name string
	// Peer owns the rule; its head and body are over D@peer.
	Peer schema.Peer
	// Head is the sequence of update atoms.
	Head []Update
	// Body is the rule's condition, an FCQ¬ query over D@peer.
	Body query.Query
	// Origin is the name of the rule this one was derived from by a
	// program transformation (normal form, stage discipline, ...); empty
	// for hand-written rules. It realizes the mapping θ of Prop 2.3.
	Origin string

	// Lazily memoized derived data. Rules are treated as immutable once
	// built (the whole repo constructs them with &Rule{...} and never
	// mutates them afterwards), so the caches are computed once and shared;
	// sync.Once makes first use safe under concurrent searches.
	bodyOnce    sync.Once
	bodyCache   []string
	freshOnce   sync.Once
	freshCache  []string
	constOnce   sync.Once
	constCache  []data.Value
	layoutOnce  sync.Once
	layoutCache *Layout
}

// String renders the rule as "name at peer: head :- body".
func (r *Rule) String() string {
	heads := make([]string, len(r.Head))
	for i, u := range r.Head {
		heads[i] = u.String()
	}
	return fmt.Sprintf("%s at %s: %s :- %s", r.Name, r.Peer, strings.Join(heads, ", "), r.Body)
}

// BodyVars returns the sorted variables of the body. The result is
// memoized; callers must not modify it.
func (r *Rule) BodyVars() []string {
	r.bodyOnce.Do(func() { r.bodyCache = r.Body.Vars() })
	return r.bodyCache
}

// FreshVars returns the variables that occur in the head but not in the
// body. At instantiation time these must be bound to globally fresh values.
// The result is memoized; callers must not modify it.
func (r *Rule) FreshVars() []string {
	r.freshOnce.Do(func() { r.freshCache = r.freshVars() })
	return r.freshCache
}

func (r *Rule) freshVars() []string {
	body := make(map[string]struct{})
	for _, l := range r.Body {
		l.Vars(body)
	}
	var out []string
	seen := make(map[string]struct{})
	for _, u := range r.Head {
		us := make(map[string]struct{})
		u.Vars(us)
		for v := range us {
			if _, inBody := body[v]; inBody {
				continue
			}
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// Constants returns the constants used by the rule (⊥ excluded). The term
// walk is memoized; the returned set is a fresh copy the caller may modify.
func (r *Rule) Constants() data.ValueSet {
	r.constOnce.Do(func() { r.constCache = r.constants().Sorted() })
	return data.NewValueSet(r.constCache...)
}

func (r *Rule) constants() data.ValueSet {
	set := data.NewValueSet()
	add := func(t query.Term) {
		if !t.IsVar && !t.Const.IsNull() {
			set.Add(t.Const)
		}
	}
	for _, l := range r.Body {
		switch l := l.(type) {
		case query.Atom:
			for _, t := range l.Args {
				add(t)
			}
		case query.KeyAtom:
			add(l.Arg)
		case query.Compare:
			add(l.L)
			add(l.R)
		}
	}
	for _, u := range r.Head {
		switch u := u.(type) {
		case Insert:
			for _, t := range u.Args {
				add(t)
			}
		case Delete:
			add(u.Key)
		}
	}
	return set
}

// Validate checks the rule against a collaborative schema: the body must be
// a safe FCQ¬ query over D@peer, head updates must target views of the peer
// with the right arity, and two updates of the same relation must provably
// affect distinct tuples (distinct constants, or an x ≠ x′ condition in the
// body, per Section 2).
func (r *Rule) Validate(s *schema.Collaborative) error {
	if !s.HasPeer(r.Peer) {
		return fmt.Errorf("rule %s: unknown peer %s", r.Name, r.Peer)
	}
	if len(r.Head) == 0 {
		return fmt.Errorf("rule %s: empty head", r.Name)
	}
	if err := r.Body.CheckSafe(); err != nil {
		return fmt.Errorf("rule %s: %w", r.Name, err)
	}
	if err := r.Body.CheckSchema(s, r.Peer); err != nil {
		return fmt.Errorf("rule %s: %w", r.Name, err)
	}
	for _, u := range r.Head {
		v, ok := s.View(r.Peer, u.Relation())
		if !ok {
			return fmt.Errorf("rule %s: head updates %s, not visible at %s", r.Name, u.Relation(), r.Peer)
		}
		if ins, isIns := u.(Insert); isIns && len(ins.Args) != v.Arity() {
			return fmt.Errorf("rule %s: insertion %s has arity %d, view has %d", r.Name, ins, len(ins.Args), v.Arity())
		}
	}
	// Distinctness of keys for same-relation updates. Keys are provably
	// distinct when they are distinct constants, when the body contains an
	// explicit x ≠ x′ condition, or when one of them is a head-only
	// variable — such variables are instantiated with globally fresh
	// values, distinct from everything else by definition of runs.
	freshSet := make(map[string]struct{})
	for _, v := range r.FreshVars() {
		freshSet[v] = struct{}{}
	}
	isFresh := func(t query.Term) bool {
		if !t.IsVar {
			return false
		}
		_, ok := freshSet[t.Var]
		return ok
	}
	for i := 0; i < len(r.Head); i++ {
		for j := i + 1; j < len(r.Head); j++ {
			if r.Head[i].Relation() != r.Head[j].Relation() {
				continue
			}
			ki, kj := r.Head[i].KeyTerm(), r.Head[j].KeyTerm()
			if !ki.IsVar && !kj.IsVar {
				if ki.Const == kj.Const {
					return fmt.Errorf("rule %s: two updates of %s with the same constant key %s", r.Name, r.Head[i].Relation(), ki)
				}
				continue
			}
			if ki == kj {
				return fmt.Errorf("rule %s: two updates of %s with the same key %s", r.Name, r.Head[i].Relation(), ki)
			}
			if isFresh(ki) || isFresh(kj) {
				continue
			}
			if !hasDisequality(r.Body, ki, kj) {
				return fmt.Errorf("rule %s: updates of %s with keys %s, %s need an explicit %s != %s in the body", r.Name, r.Head[i].Relation(), ki, kj, ki, kj)
			}
		}
	}
	return nil
}

func hasDisequality(q query.Query, a, b query.Term) bool {
	for _, l := range q {
		c, ok := l.(query.Compare)
		if !ok || !c.Neg {
			continue
		}
		if (c.L == a && c.R == b) || (c.L == b && c.R == a) {
			return true
		}
	}
	return false
}
