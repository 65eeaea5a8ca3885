package prof

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
)

// RuleCost is the snapshot of one rule's counters. CumNS = EvalNS +
// ReplayNS is the ranking key of the hot-rule listings.
type RuleCost struct {
	Rule       string `json:"rule"`
	Peer       string `json:"peer,omitempty"`
	Attempts   int64  `json:"attempts"`
	Candidates int64  `json:"candidates"`
	Fires      int64  `json:"fires"`
	Replays    int64  `json:"replays,omitempty"`
	EvalNS     int64  `json:"eval_ns"`
	ReplayNS   int64  `json:"replay_ns,omitempty"`
	CumNS      int64  `json:"cum_ns"`
	Tuples     int64  `json:"tuples_scanned"`
	KeyLookups int64  `json:"key_lookups"`
	Literals   int64  `json:"literals"`
}

// RelCost is the snapshot of one relation's scan counter.
type RelCost struct {
	Rel    string `json:"rel"`
	Tuples int64  `json:"tuples_scanned"`
}

// GuardCost is the snapshot of one guarded peer's check counters.
type GuardCost struct {
	Peer       string `json:"peer"`
	Checks     int64  `json:"checks"`
	NS         int64  `json:"ns"`
	Violations int64  `json:"violations"`
}

// PhaseCost attributes work to the consumer that performed it.
type PhaseCost struct {
	Phase      string `json:"phase"`
	BodyEvals  int64  `json:"body_evals"`
	Candidates int64  `json:"candidates"`
	EvalNS     int64  `json:"eval_ns"`
	Replays    int64  `json:"replays,omitempty"`
	ReplayNS   int64  `json:"replay_ns,omitempty"`
}

// CondCost is the snapshot of the condition-evaluation counters.
type CondCost struct {
	True    int64 `json:"true,omitempty"`
	False   int64 `json:"false,omitempty"`
	EqConst int64 `json:"eq_const,omitempty"`
	EqAttr  int64 `json:"eq_attr,omitempty"`
	Not     int64 `json:"not,omitempty"`
	And     int64 `json:"and,omitempty"`
	Or      int64 `json:"or,omitempty"`
	Total   int64 `json:"total"`
}

// Totals are the profiler-wide aggregates: sums over the per-rule cells.
type Totals struct {
	Attempts   int64 `json:"attempts"`
	Candidates int64 `json:"candidates"`
	Fires      int64 `json:"fires"`
	Replays    int64 `json:"replays"`
	EvalNS     int64 `json:"eval_ns"`
	ReplayNS   int64 `json:"replay_ns"`
	Tuples     int64 `json:"tuples_scanned"`
	KeyLookups int64 `json:"key_lookups"`
	Literals   int64 `json:"literals"`
}

// Snapshot is a point-in-time copy of a profiler, ordered for reporting:
// rules by cumulative cost descending (ties by attempts, then name),
// relations by tuples scanned, guards and phases by name.
type Snapshot struct {
	Enabled   bool        `json:"enabled"`
	Totals    Totals      `json:"totals"`
	Rules     []RuleCost  `json:"rules"`
	Relations []RelCost   `json:"relations,omitempty"`
	Guards    []GuardCost `json:"guards,omitempty"`
	Phases    []PhaseCost `json:"phases,omitempty"`
	Cond      CondCost    `json:"cond"`
}

// Snapshot copies the profiler's counters. Counters advance concurrently,
// so the copy is consistent per counter, not across them. Safe on a nil
// Profiler (returns Enabled: false).
func (p *Profiler) Snapshot() *Snapshot {
	if p == nil {
		return &Snapshot{}
	}
	s := &Snapshot{Enabled: true}
	t := &s.Totals
	p.mu.RLock()
	for name, rs := range p.rules {
		rc := RuleCost{
			Rule:       name,
			Peer:       rs.peer,
			Attempts:   rs.attempts.Load(),
			Candidates: rs.candidates.Load(),
			Fires:      rs.fires.Load(),
			Replays:    rs.replays.Load(),
			EvalNS:     rs.evalNS.Load(),
			ReplayNS:   rs.replayNS.Load(),
			Tuples:     rs.tuples.Load(),
			KeyLookups: rs.keyLookups.Load(),
			Literals:   rs.literals.Load(),
		}
		rc.CumNS = rc.EvalNS + rc.ReplayNS
		s.Rules = append(s.Rules, rc)
		t.Attempts += rc.Attempts
		t.Candidates += rc.Candidates
		t.Fires += rc.Fires
		t.Replays += rc.Replays
		t.EvalNS += rc.EvalNS
		t.ReplayNS += rc.ReplayNS
		t.Tuples += rc.Tuples
		t.KeyLookups += rc.KeyLookups
		t.Literals += rc.Literals
	}
	for rel, c := range p.rels {
		s.Relations = append(s.Relations, RelCost{Rel: rel, Tuples: c.Load()})
	}
	for peer, gs := range p.guards {
		s.Guards = append(s.Guards, GuardCost{
			Peer: peer, Checks: gs.checks.Load(), NS: gs.ns.Load(), Violations: gs.violations.Load(),
		})
	}
	for phase, ps := range p.phases {
		s.Phases = append(s.Phases, PhaseCost{
			Phase: phase, BodyEvals: ps.bodyEvals.Load(), Candidates: ps.candidates.Load(),
			EvalNS: ps.evalNS.Load(), Replays: ps.replays.Load(), ReplayNS: ps.replayNS.Load(),
		})
	}
	p.mu.RUnlock()
	s.Cond = CondCost{
		True: p.cond.True.Load(), False: p.cond.False.Load(),
		EqConst: p.cond.EqConst.Load(), EqAttr: p.cond.EqAttr.Load(),
		Not: p.cond.Not.Load(), And: p.cond.And.Load(), Or: p.cond.Or.Load(),
	}
	s.Cond.Total = s.Cond.True + s.Cond.False + s.Cond.EqConst + s.Cond.EqAttr +
		s.Cond.Not + s.Cond.And + s.Cond.Or
	sortRules(s.Rules)
	sort.Slice(s.Relations, func(i, j int) bool {
		if s.Relations[i].Tuples != s.Relations[j].Tuples {
			return s.Relations[i].Tuples > s.Relations[j].Tuples
		}
		return s.Relations[i].Rel < s.Relations[j].Rel
	})
	sort.Slice(s.Guards, func(i, j int) bool { return s.Guards[i].Peer < s.Guards[j].Peer })
	sort.Slice(s.Phases, func(i, j int) bool { return s.Phases[i].Phase < s.Phases[j].Phase })
	return s
}

// sortRules orders by cumulative cost descending, ties by attempts
// descending, then by name for determinism.
func sortRules(rules []RuleCost) {
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].CumNS != rules[j].CumNS {
			return rules[i].CumNS > rules[j].CumNS
		}
		if rules[i].Attempts != rules[j].Attempts {
			return rules[i].Attempts > rules[j].Attempts
		}
		return rules[i].Rule < rules[j].Rule
	})
}

// Table renders the snapshot as an EXPLAIN-ANALYZE-style text cost table:
// the top rules by cumulative cost, then relations, guards, phases and the
// condition counters when present. top caps the rule rows (0 = all).
func (s *Snapshot) Table(top int) string {
	var b strings.Builder
	if !s.Enabled {
		return "rule profiler: disabled\n"
	}
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	rules := s.Rules
	if top > 0 && len(rules) > top {
		rules = rules[:top]
	}
	fmt.Fprintf(w, "RULE\tATTEMPTS\tCANDS\tFIRES\tREPLAYS\tEVAL\tREPLAY\tTUPLES\tKEYGETS\tLITERALS\n")
	for _, r := range rules {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\n",
			r.Rule, r.Attempts, r.Candidates, r.Fires, r.Replays,
			fmtNS(r.EvalNS), fmtNS(r.ReplayNS), r.Tuples, r.KeyLookups, r.Literals)
	}
	fmt.Fprintf(w, "TOTAL (%d rules)\t%d\t%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\n",
		len(s.Rules), s.Totals.Attempts, s.Totals.Candidates, s.Totals.Fires, s.Totals.Replays,
		fmtNS(s.Totals.EvalNS), fmtNS(s.Totals.ReplayNS), s.Totals.Tuples, s.Totals.KeyLookups, s.Totals.Literals)
	w.Flush()
	if len(rules) < len(s.Rules) {
		fmt.Fprintf(&b, "(%d more rules; raise -top or use /debug/rules)\n", len(s.Rules)-len(rules))
	}
	if len(s.Relations) > 0 {
		fmt.Fprintf(&b, "\nrelation scans:")
		for _, r := range s.Relations {
			fmt.Fprintf(&b, " %s=%d", r.Rel, r.Tuples)
		}
		fmt.Fprintln(&b)
	}
	if len(s.Guards) > 0 {
		fmt.Fprintf(&b, "guard checks:")
		for _, g := range s.Guards {
			fmt.Fprintf(&b, " %s=%d(%s, %d violations)", g.Peer, g.Checks, fmtNS(g.NS), g.Violations)
		}
		fmt.Fprintln(&b)
	}
	if len(s.Phases) > 0 {
		fmt.Fprintf(&b, "phases:")
		for _, p := range s.Phases {
			fmt.Fprintf(&b, " %s=%d evals/%s", p.Phase, p.BodyEvals, fmtNS(p.EvalNS+p.ReplayNS))
		}
		fmt.Fprintln(&b)
	}
	if s.Cond.Total > 0 {
		fmt.Fprintf(&b, "condition evals: %d (eq_const=%d eq_attr=%d and=%d or=%d not=%d)\n",
			s.Cond.Total, s.Cond.EqConst, s.Cond.EqAttr, s.Cond.And, s.Cond.Or, s.Cond.Not)
	}
	return b.String()
}

// fmtNS renders nanoseconds with a human unit, keeping table columns
// compact.
func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
