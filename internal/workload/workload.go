// Package workload builds the workflow programs and canonical runs used by
// the test suite, the examples and the benchmark harness. Each constructor
// corresponds to a worked example or a hardness-proof gadget of the paper:
//
//   - Hiring: Example 5.1 (hr / cfo / ceo / Sue)
//   - Approval: Example 4.2 (cto / ceo / assistant / applicant)
//   - HittingSet: the NP-hardness gadget of Theorem 3.3
//   - Formula: the coNP-hardness gadget of Theorem 3.4
//   - Chain / Wide: parameterized families for the scaling experiments
//   - Revisions, CrowdFiring: client firing sequences for the run-length
//     gates on rule firing
package workload

import (
	"fmt"

	"collabwf/internal/data"
	"collabwf/internal/program"
	"collabwf/internal/query"
	"collabwf/internal/rule"
	"collabwf/internal/schema"
)

// PropKey is the key value used by propositional encodings: a proposition x
// is the unary fact Rx(0).
const PropKey = data.Value("0")

// propRelation declares a unary relation encoding a proposition.
func propRelation(name string) *schema.Relation {
	return schema.MustRelation(name)
}

// propInsert builds the head update +R@q(0).
func propInsert(rel string) rule.Update {
	return rule.Insert{Rel: rel, Args: []query.Term{query.C(PropKey)}}
}

// propDelete builds the head update −Key_R@q(0).
func propDelete(rel string) rule.Update {
	return rule.Delete{Rel: rel, Key: query.C(PropKey)}
}

// propAtom builds the body literal R@q(0).
func propAtom(rel string) query.Literal {
	return query.Atom{Rel: rel, Args: []query.Term{query.C(PropKey)}}
}

// propNegKey builds the body literal ¬Key_R@q(0).
func propNegKey(rel string) query.Literal {
	return query.KeyAtom{Neg: true, Rel: rel, Arg: query.C(PropKey)}
}

// Hiring returns the program of Example 5.1. Peers hr, cfo and ceo see all
// four unary relations; Sue sees only Cleared and Hire. Unlike the paper's
// informal rendering, the cfo and ceo rules carry the candidate through
// their bodies (head-only variables must be globally fresh in runs, so a
// candidate is introduced exactly once, by "clear").
//
//	clear    at hr:  +Cleared(x)  :-                          (x fresh)
//	cfo_ok   at cfo: +CfoOK(x)    :- Cleared(x)
//	approve  at ceo: +Approved(x) :- Cleared(x), CfoOK(x)
//	hire     at hr:  +Hire(x)     :- Approved(x)
//
// The program is not transparent for Sue: cfoOK is invisible to her yet
// gates the Hire transition she observes (Example 5.7).
func Hiring() *program.Program {
	cleared := propRelation("Cleared")
	cfoOK := propRelation("CfoOK")
	approved := propRelation("Approved")
	hire := propRelation("Hire")
	db := schema.MustDatabase(cleared, cfoOK, approved, hire)
	s := schema.NewCollaborative(db)
	for _, p := range []schema.Peer{"hr", "cfo", "ceo"} {
		for _, r := range []*schema.Relation{cleared, cfoOK, approved, hire} {
			s.MustAddView(schema.MustView(r, p, nil, nil))
		}
	}
	s.MustAddView(schema.MustView(cleared, "sue", nil, nil))
	s.MustAddView(schema.MustView(hire, "sue", nil, nil))

	rules := []*rule.Rule{
		{
			Name: "clear", Peer: "hr",
			Head: []rule.Update{rule.Insert{Rel: "Cleared", Args: []query.Term{query.V("x")}}},
			Body: query.Query{},
		},
		{
			Name: "cfo_ok", Peer: "cfo",
			Head: []rule.Update{rule.Insert{Rel: "CfoOK", Args: []query.Term{query.V("x")}}},
			Body: query.Query{query.Atom{Rel: "Cleared", Args: []query.Term{query.V("x")}}},
		},
		{
			Name: "approve", Peer: "ceo",
			Head: []rule.Update{rule.Insert{Rel: "Approved", Args: []query.Term{query.V("x")}}},
			Body: query.Query{
				query.Atom{Rel: "Cleared", Args: []query.Term{query.V("x")}},
				query.Atom{Rel: "CfoOK", Args: []query.Term{query.V("x")}},
			},
		},
		{
			Name: "hire", Peer: "hr",
			Head: []rule.Update{rule.Insert{Rel: "Hire", Args: []query.Term{query.V("x")}}},
			Body: query.Query{query.Atom{Rel: "Approved", Args: []query.Term{query.V("x")}}},
		},
	}
	return program.MustNew(s, rules)
}

// HiringTransparentNoCfo returns the first variant of Example 5.7: the
// hiring program with the cfoOK relation removed. The candidate still flows
// hr → ceo → hr, and everything Sue's transitions depend on is in relations
// she sees — yet the program is still not transparent for Sue, because a
// pre-existing invisible Approved fact can enable a Hire on one Sue-fresh
// instance but not on another with the same Sue-view.
func HiringTransparentNoCfo() *program.Program {
	cleared := propRelation("Cleared")
	approved := propRelation("Approved")
	hire := propRelation("Hire")
	db := schema.MustDatabase(cleared, approved, hire)
	s := schema.NewCollaborative(db)
	for _, p := range []schema.Peer{"hr", "ceo"} {
		for _, r := range []*schema.Relation{cleared, approved, hire} {
			s.MustAddView(schema.MustView(r, p, nil, nil))
		}
	}
	s.MustAddView(schema.MustView(cleared, "sue", nil, nil))
	s.MustAddView(schema.MustView(hire, "sue", nil, nil))

	rules := []*rule.Rule{
		{
			Name: "clear", Peer: "hr",
			Head: []rule.Update{rule.Insert{Rel: "Cleared", Args: []query.Term{query.V("x")}}},
			Body: query.Query{},
		},
		{
			Name: "approve", Peer: "ceo",
			Head: []rule.Update{rule.Insert{Rel: "Approved", Args: []query.Term{query.V("x")}}},
			Body: query.Query{query.Atom{Rel: "Cleared", Args: []query.Term{query.V("x")}}},
		},
		{
			Name: "hire", Peer: "hr",
			Head: []rule.Update{rule.Insert{Rel: "Hire", Args: []query.Term{query.V("x")}}},
			Body: query.Query{query.Atom{Rel: "Approved", Args: []query.Term{query.V("x")}}},
		},
	}
	return program.MustNew(s, rules)
}

// Approval returns the program and run of Example 4.2: peers cto, ceo,
// assistant and applicant with propositions ok and approval. The run is
//
//	e: +ok@cto :-      f: −ok@cto :-      g: +ok@ceo :-
//	h: +approval@assistant :- ok@assistant
//
// The subrun e·h is a (misleading) scenario for the applicant; the unique
// minimal applicant-faithful scenario is g·h.
func Approval() (*program.Program, *program.Run) {
	ok := propRelation("Ok")
	approval := propRelation("Approval")
	db := schema.MustDatabase(ok, approval)
	s := schema.NewCollaborative(db)
	for _, p := range []schema.Peer{"cto", "ceo", "assistant"} {
		s.MustAddView(schema.MustView(ok, p, nil, nil))
		s.MustAddView(schema.MustView(approval, p, nil, nil))
	}
	s.MustAddView(schema.MustView(approval, "applicant", nil, nil))

	rules := []*rule.Rule{
		{Name: "e", Peer: "cto", Head: []rule.Update{propInsert("Ok")}, Body: query.Query{}},
		{Name: "f", Peer: "cto", Head: []rule.Update{propDelete("Ok")}, Body: query.Query{propAtom("Ok")}},
		{Name: "g", Peer: "ceo", Head: []rule.Update{propInsert("Ok")}, Body: query.Query{propNegKey("Ok")}},
		{Name: "h", Peer: "assistant", Head: []rule.Update{propInsert("Approval")}, Body: query.Query{propAtom("Ok")}},
	}
	p := program.MustNew(s, rules)
	r := program.NewRun(p)
	for _, name := range []string{"e", "f", "g", "h"} {
		r.MustFireRule(name, nil)
	}
	return p, r
}

// HittingSetInstance is an instance of the hitting set problem: sets are
// subsets of {0, ..., N-1} given by element indices.
type HittingSetInstance struct {
	N    int
	Sets [][]int
}

// HittingSet returns the program of the Theorem 3.3 reduction and its
// canonical run ρ: peer q sees all propositions V_i, C_j and OK; peer p sees
// only OK. The run fires all (a)-rules, then one (b)-rule for every (i, j)
// with v_i ∈ c_j, then the (c)-rule. A scenario for p of length ≤ M+k+1
// exists iff the instance has a hitting set of size ≤ M.
func HittingSet(inst HittingSetInstance) (*program.Program, *program.Run, error) {
	var rels []*schema.Relation
	for i := 0; i < inst.N; i++ {
		rels = append(rels, propRelation(fmt.Sprintf("V%d", i)))
	}
	for j := range inst.Sets {
		rels = append(rels, propRelation(fmt.Sprintf("C%d", j)))
	}
	okRel := propRelation("OK")
	rels = append(rels, okRel)
	db := schema.MustDatabase(rels...)
	s := schema.NewCollaborative(db)
	for _, r := range rels {
		s.MustAddView(schema.MustView(r, "q", nil, nil))
	}
	s.MustAddView(schema.MustView(okRel, "p", nil, nil))

	var rules []*rule.Rule
	for i := 0; i < inst.N; i++ {
		rules = append(rules, &rule.Rule{
			Name: fmt.Sprintf("a%d", i), Peer: "q",
			Head: []rule.Update{propInsert(fmt.Sprintf("V%d", i))},
			Body: query.Query{},
		})
	}
	for j, set := range inst.Sets {
		for _, i := range set {
			rules = append(rules, &rule.Rule{
				Name: fmt.Sprintf("b%d_%d", j, i), Peer: "q",
				Head: []rule.Update{propInsert(fmt.Sprintf("C%d", j))},
				Body: query.Query{propAtom(fmt.Sprintf("V%d", i))},
			})
		}
	}
	okBody := make(query.Query, 0, len(inst.Sets))
	for j := range inst.Sets {
		okBody = append(okBody, propAtom(fmt.Sprintf("C%d", j)))
	}
	rules = append(rules, &rule.Rule{Name: "c", Peer: "q",
		Head: []rule.Update{propInsert("OK")}, Body: okBody})

	p, err := program.New(s, rules)
	if err != nil {
		return nil, nil, err
	}
	r := program.NewRun(p)
	for i := 0; i < inst.N; i++ {
		if _, err := r.FireRule(fmt.Sprintf("a%d", i), nil); err != nil {
			return nil, nil, err
		}
	}
	for j, set := range inst.Sets {
		if len(set) == 0 {
			return nil, nil, fmt.Errorf("workload: set %d is empty, OK is unreachable", j)
		}
		for _, i := range set {
			if _, err := r.FireRule(fmt.Sprintf("b%d_%d", j, i), nil); err != nil {
				return nil, nil, err
			}
		}
	}
	if _, err := r.FireRule("c", nil); err != nil {
		return nil, nil, err
	}
	return p, r, nil
}

// Chain returns a propositional chain program of depth d: peer q derives
// A1, then A_{i+1} from A_i; peer p sees only A_d. The canonical run fires
// the whole chain. The minimum p-faithful subrun ending in the visible
// event has length exactly d, so the program is d-bounded but not
// (d−1)-bounded for p.
func Chain(d int) (*program.Program, *program.Run, error) {
	if d < 1 {
		return nil, nil, fmt.Errorf("workload: chain depth must be ≥ 1")
	}
	rels := make([]*schema.Relation, d)
	for i := range rels {
		rels[i] = propRelation(fmt.Sprintf("A%d", i+1))
	}
	db := schema.MustDatabase(rels...)
	s := schema.NewCollaborative(db)
	for _, r := range rels {
		s.MustAddView(schema.MustView(r, "q", nil, nil))
	}
	s.MustAddView(schema.MustView(rels[d-1], "p", nil, nil))

	rules := []*rule.Rule{{
		Name: "step1", Peer: "q",
		Head: []rule.Update{propInsert("A1")},
		Body: query.Query{},
	}}
	for i := 2; i <= d; i++ {
		rules = append(rules, &rule.Rule{
			Name: fmt.Sprintf("step%d", i), Peer: "q",
			Head: []rule.Update{propInsert(fmt.Sprintf("A%d", i))},
			Body: query.Query{propAtom(fmt.Sprintf("A%d", i-1))},
		})
	}
	p, err := program.New(s, rules)
	if err != nil {
		return nil, nil, err
	}
	r := program.NewRun(p)
	for i := 1; i <= d; i++ {
		if _, err := r.FireRule(fmt.Sprintf("step%d", i), nil); err != nil {
			return nil, nil, err
		}
	}
	return p, r, nil
}

// Wide returns a run interleaving a relevant chain of depth `depth` (peer p
// sees the chain's last proposition) with `noise` irrelevant events on
// relations p never sees. It exercises explanation compression: the minimal
// p-faithful scenario has size depth, independent of noise.
func Wide(depth, noise int) (*program.Program, *program.Run, error) {
	if depth < 1 || noise < 0 {
		return nil, nil, fmt.Errorf("workload: bad Wide parameters")
	}
	var rels []*schema.Relation
	for i := 1; i <= depth; i++ {
		rels = append(rels, propRelation(fmt.Sprintf("A%d", i)))
	}
	for i := 0; i < noise; i++ {
		rels = append(rels, propRelation(fmt.Sprintf("N%d", i)))
	}
	db := schema.MustDatabase(rels...)
	s := schema.NewCollaborative(db)
	for _, r := range rels {
		s.MustAddView(schema.MustView(r, "q", nil, nil))
	}
	s.MustAddView(schema.MustView(db.Relation(fmt.Sprintf("A%d", depth)), "p", nil, nil))

	rules := []*rule.Rule{{
		Name: "step1", Peer: "q",
		Head: []rule.Update{propInsert("A1")},
		Body: query.Query{},
	}}
	for i := 2; i <= depth; i++ {
		rules = append(rules, &rule.Rule{
			Name: fmt.Sprintf("step%d", i), Peer: "q",
			Head: []rule.Update{propInsert(fmt.Sprintf("A%d", i))},
			Body: query.Query{propAtom(fmt.Sprintf("A%d", i-1))},
		})
	}
	for i := 0; i < noise; i++ {
		rules = append(rules, &rule.Rule{
			Name: fmt.Sprintf("noise%d", i), Peer: "q",
			Head: []rule.Update{propInsert(fmt.Sprintf("N%d", i))},
			Body: query.Query{},
		})
	}
	p, err := program.New(s, rules)
	if err != nil {
		return nil, nil, err
	}
	r := program.NewRun(p)
	// Interleave: noise events between chain steps, round-robin.
	ni := 0
	fireNoise := func(k int) error {
		for j := 0; j < k && ni < noise; j++ {
			if _, err := r.FireRule(fmt.Sprintf("noise%d", ni), nil); err != nil {
				return err
			}
			ni++
		}
		return nil
	}
	per := noise / (depth + 1)
	for i := 1; i <= depth; i++ {
		if err := fireNoise(per); err != nil {
			return nil, nil, err
		}
		if _, err := r.FireRule(fmt.Sprintf("step%d", i), nil); err != nil {
			return nil, nil, err
		}
	}
	if err := fireNoise(noise); err != nil { // drain the rest
		return nil, nil, err
	}
	return p, r, nil
}
