// Package prof is the rule-engine cost profiler: per-rule attribution of
// the evaluation work the engine performs. Where the tracer answers "what
// did this request do", the profiler answers "which rules, relations and
// conditions is the engine burning its time on" — the measurement baseline
// the rule/guard indexing work (ROADMAP item 3) must beat.
//
// A Profiler aggregates four kinds of attribution:
//
//   - per rule: body-evaluation attempts vs. fires, candidates produced,
//     replay re-checks, cumulative evaluation nanoseconds, and the query
//     work (tuples scanned, key lookups, literals) each body cost;
//   - per relation: tuples iterated by scans, fed by query.EvalStats;
//   - per guard peer: monitor sync+check wall time and violation verdicts;
//   - per phase: which consumer performed the work ("engine" for the live
//     run, "decider.silent_runs" / "decider.fresh_instances" for the
//     transparency searches, "scenario.minimum" for scenario search).
//
// Hooks are threaded through program.Run, the coordinator and the decider
// searches as *Scope values. A nil Scope (and a nil Profiler) is the
// disabled profiler: every hook returns on a nil check before touching a
// clock or allocating, so the instrumented paths cost one predicate when
// profiling is off — the tracer's off-path pattern. Enabled hooks use
// atomic counters behind an RWMutex-guarded registration map and allocate
// only on the first sighting of a rule, relation, guard or phase.
package prof

import (
	"sync"
	"sync/atomic"

	"collabwf/internal/cond"
	"collabwf/internal/query"
)

// RuleStats holds the per-rule counters. All fields are atomics: many
// scopes (the coordinator's run, concurrent decider workers) update one
// RuleStats concurrently.
type RuleStats struct {
	peer       string
	attempts   atomic.Int64 // body evaluations during candidate enumeration
	candidates atomic.Int64 // valuations those evaluations produced
	fires      atomic.Int64 // events actually appended for the rule
	replays    atomic.Int64 // ground body re-checks (Append's Satisfied)
	evalNS     atomic.Int64 // wall time inside body evaluations
	replayNS   atomic.Int64 // wall time inside replay re-checks
	tuples     atomic.Int64 // tuples iterated by this rule's body scans
	keyLookups atomic.Int64 // key-based fast-path lookups
	literals   atomic.Int64 // literal evaluations entered
}

// GuardStats holds the per-guarded-peer counters for coordinator guard
// checks.
type GuardStats struct {
	checks     atomic.Int64
	ns         atomic.Int64
	violations atomic.Int64
}

// PhaseStats attributes work to the consumer that performed it.
type PhaseStats struct {
	bodyEvals  atomic.Int64
	candidates atomic.Int64
	evalNS     atomic.Int64
	replays    atomic.Int64
	replayNS   atomic.Int64
}

// Profiler aggregates evaluation cost. The zero value is not usable; use
// New. A nil *Profiler is the disabled profiler and is safe to call.
type Profiler struct {
	mu     sync.RWMutex
	rules  map[string]*RuleStats
	rels   map[string]*atomic.Int64
	guards map[string]*GuardStats
	phases map[string]*PhaseStats

	cond cond.EvalCounts
}

// New returns an empty enabled profiler.
func New() *Profiler {
	return &Profiler{
		rules:  make(map[string]*RuleStats),
		rels:   make(map[string]*atomic.Int64),
		guards: make(map[string]*GuardStats),
		phases: make(map[string]*PhaseStats),
	}
}

// Enabled reports whether p collects (i.e. is non-nil); callers use it to
// gate timestamp capture, the one hook cost that is not a branch.
func (p *Profiler) Enabled() bool { return p != nil }

// ruleStats returns the stats cell for a rule, registering it on first
// sight. The read lock is the steady-state path.
func (p *Profiler) ruleStats(rule, peer string) *RuleStats {
	p.mu.RLock()
	rs := p.rules[rule]
	p.mu.RUnlock()
	if rs != nil {
		return rs
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if rs = p.rules[rule]; rs == nil {
		rs = &RuleStats{peer: peer}
		p.rules[rule] = rs
	}
	return rs
}

func (p *Profiler) relCounter(rel string) *atomic.Int64 {
	p.mu.RLock()
	c := p.rels[rel]
	p.mu.RUnlock()
	if c != nil {
		return c
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if c = p.rels[rel]; c == nil {
		c = new(atomic.Int64)
		p.rels[rel] = c
	}
	return c
}

func (p *Profiler) guardStats(peer string) *GuardStats {
	p.mu.RLock()
	gs := p.guards[peer]
	p.mu.RUnlock()
	if gs != nil {
		return gs
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if gs = p.guards[peer]; gs == nil {
		gs = &GuardStats{}
		p.guards[peer] = gs
	}
	return gs
}

func (p *Profiler) phaseStats(phase string) *PhaseStats {
	p.mu.RLock()
	ps := p.phases[phase]
	p.mu.RUnlock()
	if ps != nil {
		return ps
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if ps = p.phases[phase]; ps == nil {
		ps = &PhaseStats{}
		p.phases[phase] = ps
	}
	return ps
}

// GuardCheck records one coordinator guard check for a guarded peer: its
// wall time (monitor sync + violation collection) and whether it rejected
// the submission. Safe on a nil Profiler.
func (p *Profiler) GuardCheck(peer string, ns int64, violated bool) {
	if p == nil {
		return
	}
	gs := p.guardStats(peer)
	gs.checks.Add(1)
	gs.ns.Add(ns)
	if violated {
		gs.violations.Add(1)
	}
}

// Cond returns the profiler's condition-evaluation counter block, the sink
// the engine threads into cond evaluation for the work it attributes to
// this profiler. Nil when p is nil (uncounted).
func (p *Profiler) Cond() *cond.EvalCounts {
	if p == nil {
		return nil
	}
	return &p.cond
}

// Scope tags profiler updates with the phase that performs the work. A nil
// Scope is the disabled profiler: every hook on it returns immediately.
type Scope struct {
	p     *Profiler
	phase *PhaseStats
}

// Scope returns a scope attributing work to the named phase. Nil on a nil
// Profiler, so callers thread opts.Profiler.Scope("...") unconditionally.
func (p *Profiler) Scope(phase string) *Scope {
	if p == nil {
		return nil
	}
	return &Scope{p: p, phase: p.phaseStats(phase)}
}

// Enabled reports whether the scope collects; the engine uses it to gate
// its time.Now() calls.
func (s *Scope) Enabled() bool { return s != nil }

// Profiler returns the scope's profiler (nil for the disabled scope).
func (s *Scope) Profiler() *Profiler {
	if s == nil {
		return nil
	}
	return s.p
}

// RuleEval records one body evaluation of a rule during candidate
// enumeration: its wall time and the query work it performed (es must be
// non-nil; es.Valuations is the number of candidates produced).
func (s *Scope) RuleEval(rule, peer string, ns int64, es *query.EvalStats) {
	if s == nil {
		return
	}
	rs := s.p.ruleStats(rule, peer)
	rs.attempts.Add(1)
	rs.candidates.Add(es.Valuations)
	rs.evalNS.Add(ns)
	rs.tuples.Add(es.Tuples)
	rs.keyLookups.Add(es.KeyLookups)
	rs.literals.Add(es.Literals)
	if es.Rel != nil {
		for rel, n := range es.Rel {
			s.p.relCounter(rel).Add(n)
		}
	}
	s.phase.bodyEvals.Add(1)
	s.phase.candidates.Add(es.Valuations)
	s.phase.evalNS.Add(ns)
}

// RuleFired records that an event of the rule was appended to a run.
func (s *Scope) RuleFired(rule, peer string) {
	if s == nil {
		return
	}
	s.p.ruleStats(rule, peer).fires.Add(1)
}

// RuleReplay records one ground body re-check (Append re-validating an
// event's body, the cost of replaying runs in the searches).
func (s *Scope) RuleReplay(rule, peer string, ns int64) {
	if s == nil {
		return
	}
	rs := s.p.ruleStats(rule, peer)
	rs.replays.Add(1)
	rs.replayNS.Add(ns)
	s.phase.replays.Add(1)
	s.phase.replayNS.Add(ns)
}
