package design

import (
	"fmt"

	"collabwf/internal/cond"
	"collabwf/internal/data"
	"collabwf/internal/program"
	"collabwf/internal/query"
	"collabwf/internal/rule"
	"collabwf/internal/schema"
)

// CheckTF verifies that a normal-form program is in transparency-form for
// the peer (Definition 6.5): conditions (C1), (C2) — structurally, the
// Stage relation and its discipline — plus (C3′) (keys of p-invisible
// relations are never reused: insertions either create a fresh key or are
// witnessed by a body atom) and (C4′) (selections on p-invisible relations
// use only projected attributes).
func CheckTF(p *program.Program, peer schema.Peer) error {
	if !p.IsNormalForm() {
		return fmt.Errorf("design: TF requires a normal-form program")
	}
	if err := CheckC1(p, peer); err != nil {
		return err
	}
	if err := checkC2Stage(p, peer); err != nil {
		return err
	}
	// (C3′)
	for _, r := range p.Rules() {
		if r.Peer == peer {
			continue
		}
		fresh := make(map[string]bool)
		for _, v := range r.FreshVars() {
			fresh[v] = true
		}
		for _, u := range r.Head {
			ins, ok := u.(rule.Insert)
			if !ok {
				continue
			}
			if _, visible := p.Schema.View(peer, ins.Rel); visible {
				continue
			}
			key := ins.KeyTerm()
			if key.IsVar && fresh[key.Var] {
				continue // key creation with a globally fresh value
			}
			// Besides the paper's two shapes — fresh key or witnessed
			// modification — a ¬Key-guarded insertion is accepted: it is a
			// creation witnessed as such, and the rewriting's bookkeeping
			// detects (and blocks) cross-stage key reuse via chase
			// conflicts on the stage column.
			if !hasBodyAtomWithKey(r.Body, ins.Rel, key) && !hasNegKeyWithKey(r.Body, ins.Rel, key) {
				return fmt.Errorf("design: (C3') violated in rule %s: insertion %s neither creates a key nor is witnessed in the body", r.Name, ins)
			}
		}
	}
	// (C4′)
	for _, name := range p.Schema.DB.Names() {
		if _, visible := p.Schema.View(peer, name); visible {
			continue
		}
		for _, q := range p.Schema.Peers() {
			v, ok := p.Schema.View(q, name)
			if !ok {
				continue
			}
			for _, a := range cond.AttrsOf(v.Selection) {
				if !v.Has(a) {
					return fmt.Errorf("design: (C4') violated: σ(%s@%s) uses hidden attribute %s", name, q, a)
				}
			}
		}
	}
	return nil
}

func hasNegKeyWithKey(q query.Query, rel string, key query.Term) bool {
	for _, l := range q {
		if k, ok := l.(query.KeyAtom); ok && k.Neg && k.Rel == rel && k.Arg == key {
			return true
		}
	}
	return false
}

func hasBodyAtomWithKey(q query.Query, rel string, key query.Term) bool {
	for _, l := range q {
		if a, ok := l.(query.Atom); ok && !a.Neg && a.Rel == rel && len(a.Args) > 0 && a.Args[0] == key {
			return true
		}
	}
	return false
}

// checkC2Stage verifies structurally that the program maintains the Stage
// relation: the relation exists with the expected shape and visibility,
// every peer has a refresh rule, rules with p-visible updates close the
// stage, and every other rule is stage-guarded.
func checkC2Stage(p *program.Program, peer schema.Peer) error {
	st := p.Schema.DB.Relation(StageRelation)
	if st == nil || st.Arity() != 2 {
		return fmt.Errorf("design: (C2) requires a binary %s relation", StageRelation)
	}
	for _, q := range p.Schema.Peers() {
		v, ok := p.Schema.View(q, StageRelation)
		if !ok || !v.Full() {
			return fmt.Errorf("design: (C2) requires every peer to fully see %s", StageRelation)
		}
	}
	for _, q := range p.Schema.Peers() {
		hasRefresh := false
		for _, r := range p.RulesAt(q) {
			if isStageRefresh(r) {
				hasRefresh = true
				break
			}
		}
		if !hasRefresh {
			return fmt.Errorf("design: (C2) peer %s lacks a stage refresh rule", q)
		}
	}
	for _, r := range p.Rules() {
		if isStageRefresh(r) {
			continue
		}
		if VisiblyUpdates(r, p.Schema, peer) {
			if !deletesStage(r) {
				return fmt.Errorf("design: (C2) rule %s has p-visible updates but does not close the stage", r.Name)
			}
		} else if !guardedByStage(r) {
			return fmt.Errorf("design: (C2) rule %s is p-invisible but not stage-guarded", r.Name)
		}
	}
	return nil
}

func isStageRefresh(r *rule.Rule) bool {
	if len(r.Head) != 1 {
		return false
	}
	ins, ok := r.Head[0].(rule.Insert)
	return ok && ins.Rel == StageRelation
}

func deletesStage(r *rule.Rule) bool {
	for _, u := range r.Head {
		if d, ok := u.(rule.Delete); ok && d.Rel == StageRelation {
			return true
		}
	}
	return false
}

func guardedByStage(r *rule.Rule) bool {
	for _, l := range r.Body {
		if a, ok := l.(query.Atom); ok && !a.Neg && a.Rel == StageRelation {
			return true
		}
	}
	return false
}

// --- Static rewriting P → Pᵗ (Theorem 6.7) ---

// tfSuffix distinguishes the bookkeeping relations Rᵗ of the rewriting.
const tfSuffix = "ᵗ"

// Rewrite constructs Pᵗ from a TF program (Theorem 6.7): each p-invisible
// relation R gains a bookkeeping relation Rᵗ(K, T, DK, Stage, S1..Sh) whose
// tuple for key k records whether the fact was produced transparently this
// stage (T = ⊥), whether it was transparently deleted (DK = 1), the stage
// id it belongs to, and (left-packed) the step ids contributing to it.
// Every original rule yields transparent variants — one per distribution of
// the step budget over its invisible body atoms — whose bodies demand
// transparent same-stage facts, and an opaque variant that may fire freely
// but only update invisibly, marking its products opaque.
//
// Deliberate simplification relative to the paper's sketch: provenance is
// tracked per tuple rather than per attribute, and the step budget of a
// transparent event is the sum (not the union) of its inputs' budgets plus
// one. Both make the rewriting conservative — every run of Pᵗ projects to a
// transparent, h-bounded run of P, while some legal runs with heavily
// shared provenance may be rejected; the Monitor implements the exact
// criterion.
func Rewrite(p *program.Program, peer schema.Peer, h int) (*program.Program, error) {
	if err := CheckTF(p, peer); err != nil {
		return nil, err
	}
	old := p.Schema
	invisible := make(map[string]bool)
	var rels []*schema.Relation
	for _, name := range old.DB.Names() {
		r := old.DB.Relation(name)
		rels = append(rels, schema.MustRelation(name, r.Attrs[1:]...))
		if _, ok := old.View(peer, name); !ok && name != StageRelation {
			invisible[name] = true
			attrs := []data.Attr{"T", "DK", "Stage"}
			for i := 1; i <= h; i++ {
				attrs = append(attrs, data.Attr(fmt.Sprintf("S%d", i)))
			}
			rels = append(rels, schema.MustRelation(name+tfSuffix, attrs...))
		}
	}
	db := schema.MustDatabase(rels...)
	collab := schema.NewCollaborative(db)
	for _, q := range old.Peers() {
		for _, v := range old.ViewsAt(q) {
			collab.MustAddView(schema.MustView(db.Relation(v.Rel.Name), q, v.Attrs[1:], v.Selection))
			if invisible[v.Rel.Name] {
				rt := db.Relation(v.Rel.Name + tfSuffix)
				collab.MustAddView(schema.MustView(rt, q, rt.Attrs[1:], nil))
			}
		}
	}

	var rules []*rule.Rule
	for _, r := range p.Rules() {
		if isStageRefresh(r) {
			rules = append(rules, &rule.Rule{Name: r.Name, Peer: r.Peer, Head: r.Head, Body: r.Body, Origin: r.Name})
			continue
		}
		ts, err := transparentVariants(r, p, peer, invisible, h)
		if err != nil {
			return nil, err
		}
		rules = append(rules, ts...)
		if !VisiblyUpdates(r, old, peer) {
			rules = append(rules, opaqueVariant(r, invisible, h))
		}
	}
	return program.New(collab, rules)
}

// transparentVariants builds the transparent variants of a rule: one per
// assignment of the step budget over its invisible body literals. Each
// invisible positive atom demands a transparent same-stage bookkeeping
// tuple carrying some number of (left-packed) step slots; each invisible
// negative key literal is satisfied either because the key never existed
// (no bookkeeping tuple at all) or because it was transparently created and
// deleted this stage (DK = 1), in which case its recorded steps also count
// toward the budget.
func transparentVariants(r *rule.Rule, p *program.Program, peer schema.Peer, invisible map[string]bool, h int) ([]*rule.Rule, error) {
	var invAtoms []query.Atom
	var invNegs []query.KeyAtom
	for _, l := range r.Body {
		switch l := l.(type) {
		case query.Atom:
			if !l.Neg && invisible[l.Rel] {
				invAtoms = append(invAtoms, l)
			}
		case query.KeyAtom:
			if l.Neg && invisible[l.Rel] {
				invNegs = append(invNegs, l)
			}
		}
	}
	if !guardedByStage(r) {
		return nil, fmt.Errorf("design: rule %s not stage-guarded", r.Name)
	}
	stageVar := query.Term{}
	for _, l := range r.Body {
		if a, ok := l.(query.Atom); ok && !a.Neg && a.Rel == StageRelation && len(a.Args) == 2 {
			stageVar = a.Args[1]
		}
	}

	var out []*rule.Rule
	counts := make([]int, len(invAtoms))
	modes := make([]int, len(invNegs)) // -1 = never existed, ≥0 = deleted with that many slots
	serial := 0
	var recNeg func(i, used int)
	recNeg = func(i, used int) {
		if used+1 > h {
			return
		}
		if i == len(invNegs) {
			serial++
			out = append(out, buildTransparentVariant(r, invAtoms, counts, invNegs, modes, stageVar, invisible, h, serial))
			return
		}
		modes[i] = -1
		recNeg(i+1, used)
		for c := 1; used+c+1 <= h; c++ { // a deleted tuple recorded ≥1 step
			modes[i] = c
			recNeg(i+1, used+c)
		}
	}
	var recAtom func(i, used int)
	recAtom = func(i, used int) {
		if used+1 > h {
			return
		}
		if i == len(invAtoms) {
			recNeg(0, used)
			return
		}
		for c := 0; used+c+1 <= h; c++ {
			counts[i] = c
			recAtom(i+1, used+c)
		}
	}
	recAtom(0, 0)
	return out, nil
}

// buildTransparentVariant assembles one transparent variant (see
// transparentVariants); the head stamps every produced bookkeeping tuple
// with the combined provenance slots plus a fresh step id.
func buildTransparentVariant(r *rule.Rule, invAtoms []query.Atom, counts []int, invNegs []query.KeyAtom, modes []int, stageVar query.Term, invisible map[string]bool, h, serial int) *rule.Rule {
	nr := &rule.Rule{
		Name:   fmt.Sprintf("%s%st%d", r.Name, tfSuffix, serial),
		Peer:   r.Peer,
		Origin: r.Name,
		Body:   append(query.Query{}, r.Body...),
	}
	stepVar := query.V("σstep")
	var slotVars []query.Term
	slotAtom := func(key query.Term, dk query.Term, n, group int) query.Atom {
		args := make([]query.Term, 3+h+1)
		args[0] = key
		args[1] = query.C(data.Null) // T = ⊥: transparent
		args[2] = dk
		args[3] = stageVar // same stage
		for s := 1; s <= h; s++ {
			if s <= n {
				v := query.V(fmt.Sprintf("σs%d_%d", group, s))
				args[3+s] = v
				slotVars = append(slotVars, v)
			} else {
				args[3+s] = query.C(data.Null)
			}
		}
		return query.Atom{Args: args}
	}
	group := 0
	for ai, a := range invAtoms {
		at := slotAtom(a.Args[0], query.C(data.Null), counts[ai], group)
		at.Rel = a.Rel + tfSuffix
		nr.Body = append(nr.Body, at)
		group++
	}
	for ni, k := range invNegs {
		if modes[ni] < 0 {
			nr.Body = append(nr.Body, query.KeyAtom{Neg: true, Rel: k.Rel + tfSuffix, Arg: k.Arg})
			continue
		}
		at := slotAtom(k.Arg, query.C("1"), modes[ni], group)
		at.Rel = k.Rel + tfSuffix
		nr.Body = append(nr.Body, at)
		group++
	}
	stamp := func(key query.Term, dk query.Term) rule.Insert {
		args := make([]query.Term, 3+h+1)
		args[0] = key
		args[1] = query.C(data.Null)
		args[2] = dk
		args[3] = stageVar
		slot := 0
		for _, v := range slotVars {
			slot++
			args[3+slot] = v
		}
		slot++
		args[3+slot] = stepVar
		for s := slot + 1; s <= h; s++ {
			args[3+s] = query.C(data.Null)
		}
		return rule.Insert{Args: args}
	}
	for _, u := range r.Head {
		nr.Head = append(nr.Head, u)
		switch u := u.(type) {
		case rule.Insert:
			if !invisible[u.Rel] {
				continue
			}
			st := stamp(u.KeyTerm(), query.C(data.Null))
			st.Rel = u.Rel + tfSuffix
			nr.Head = append(nr.Head, st)
		case rule.Delete:
			if !invisible[u.Rel] {
				continue
			}
			// Transparent deletion: mark DK = 1 on the bookkeeping tuple
			// and record the deleting step.
			st := stamp(u.Key, query.C("1"))
			st.Rel = u.Rel + tfSuffix
			nr.Head = append(nr.Head, st)
		}
	}
	return nr
}

// opaqueVariant builds the opaque variant of a p-invisible rule: it fires
// without transparency requirements but marks every fact it produces as
// opaque (T = 1).
func opaqueVariant(r *rule.Rule, invisible map[string]bool, h int) *rule.Rule {
	nr := &rule.Rule{
		Name:   r.Name + tfSuffix + "o",
		Peer:   r.Peer,
		Origin: r.Name,
		Body:   append(query.Query{}, r.Body...),
	}
	for _, u := range r.Head {
		nr.Head = append(nr.Head, u)
		if ins, ok := u.(rule.Insert); ok && invisible[ins.Rel] {
			args := make([]query.Term, 3+h+1)
			args[0] = ins.KeyTerm()
			args[1] = query.C("1") // opaque
			args[2] = query.C(data.Null)
			args[3] = query.C(data.Null)
			for s := 1; s <= h; s++ {
				args[3+s] = query.C(data.Null)
			}
			nr.Head = append(nr.Head, rule.Insert{Rel: ins.Rel + tfSuffix, Args: args})
		}
	}
	return nr
}

// ProjectRun is the projection Π of Theorem 6.7 on runs: it maps a run of
// Pᵗ back to a run of the original program P by dropping the bookkeeping
// relations and updates and mapping each rule to its origin. Π is the
// identity for the peer: the projected run has the same p-view.
func ProjectRun(pt *program.Run, original *program.Program) (*program.Run, error) {
	out := program.NewRun(original)
	for i := 0; i < pt.Len(); i++ {
		e := pt.Event(i)
		name := e.Rule.Origin
		if name == "" {
			name = e.Rule.Name
		}
		orig := original.Rule(name)
		if orig == nil {
			return nil, fmt.Errorf("design: projected rule %s not in the original program", name)
		}
		oe, err := e.As(orig)
		if err != nil {
			return nil, err
		}
		if err := out.Append(oe); err != nil {
			return nil, fmt.Errorf("design: projection of event %d not replayable: %w", i, err)
		}
	}
	return out, nil
}
