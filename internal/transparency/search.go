// Package transparency implements the static analyses of Section 5 of the
// paper: p-fresh instances (Definition 5.5), minimum p-faithful runs,
// the h-boundedness decision procedure (Theorem 5.10) and the transparency
// decision procedure for h-bounded programs (Theorem 5.11).
//
// Both procedures are, as in the paper, exhaustive searches over instances
// and event sequences built from a bounded constant pool C_m = const(P) ∪
// {c₁, …}. The searches here are exact relative to their configured caps
// (pool size, tuples per relation, node budgets); the defaults cover the
// propositional and small-arity relational programs of the paper's
// examples, and every cap overflow is reported as ErrBudget rather than
// silently truncated.
//
// The deciders run on a bounded worker pool (Options.Parallelism, default
// GOMAXPROCS) that fans out over initial instances and top-level silent-run
// branches, share a candidate-memoization cache across workers, and accept
// a context so the first violation — or the caller — cancels outstanding
// work. See DESIGN.md, "Parallel decider search", for the architecture and
// the determinism rule.
package transparency

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"collabwf/internal/data"
	"collabwf/internal/faithful"
	"collabwf/internal/prof"
	"collabwf/internal/program"
	"collabwf/internal/query"
	"collabwf/internal/schema"
)

// ErrBudget is returned when a search exceeds its configured bounds.
var ErrBudget = errors.New("transparency: search budget exceeded")

// Options configures the bounded searches.
type Options struct {
	// PoolFresh is the number of fresh constants added to const(P) to form
	// the pool C (the c_m of the paper). 0 selects a default based on the
	// program's variable usage and h.
	PoolFresh int
	// MaxTuplesPerRelation caps the instances enumerated. Default 2.
	MaxTuplesPerRelation int
	// MaxTuplesTotal caps the total number of tuples per enumerated
	// instance across all relations (0 = no extra cap). Large schemas need
	// it to keep the enumeration tractable; the certification is then
	// relative to instances of that size.
	MaxTuplesTotal int
	// MaxInstances caps the number of instances enumerated. Default 50000.
	MaxInstances int
	// MaxNodes caps the number of search-tree nodes (event firings)
	// explored. Default 500000. The counter is shared across workers, so
	// when the budget is the binding constraint the exact overflow point —
	// though not the error — can vary with Parallelism.
	MaxNodes int
	// Parallelism is the worker-pool width for the fan-out over initial
	// instances and top-level silent-run branches. 0 selects GOMAXPROCS;
	// 1 forces the sequential search. Verdicts and witnesses are identical
	// for every width (see par.ForEachOrdered).
	Parallelism int
	// Stats, when non-nil, accumulates search-effort counters across calls.
	Stats *Stats
	// Profiler, when non-nil, attributes the search's candidate-generation
	// and replay cost per rule, under the phases "decider.silent_runs"
	// (the silent-run DFS and its replays) and "decider.fresh_instances"
	// (the visible-event enumeration of Definition 5.5).
	Profiler *prof.Profiler
}

func (o Options) withDefaults(p *program.Program, h int) Options {
	if o.PoolFresh == 0 {
		o.PoolFresh = (h + 2) * max(1, p.MaxRuleVars())
		if o.PoolFresh > 6 {
			o.PoolFresh = 6 // keep the default enumeration tractable
		}
	}
	if o.MaxTuplesPerRelation == 0 {
		o.MaxTuplesPerRelation = 2
	}
	if o.MaxInstances == 0 {
		o.MaxInstances = 50000
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 500000
	}
	return o
}

// Pool returns the constant pool C for program p: const(P) followed by n
// fresh constants c1, c2, ….
func Pool(p *program.Program, n int) []data.Value {
	out := p.Constants().Sorted()
	used := data.NewValueSet(out...)
	added, i := 0, 0
	for added < n {
		i++
		c := data.Value(fmt.Sprintf("c%d", i))
		if used.Has(c) {
			continue
		}
		out = append(out, c)
		added++
	}
	return out
}

// searcher carries the shared state of the decision procedures. A searcher
// is safe for concurrent use by the decider worker pools: its fields are
// either immutable after construction (prog, pool, consts, fresh) or
// internally synchronized (nodes, cands).
type searcher struct {
	prog   *program.Program
	peer   schema.Peer
	opts   Options
	pool   []data.Value
	consts data.ValueSet // const(P), shared and read-only
	fresh  data.ValueSet // pool \ const(P), shared and read-only
	nodes  atomic.Int64
	cands  *candCache
	states int64
	// profSilent and profFresh are the profiler scopes of the two search
	// phases (nil when profiling is off). Scopes are concurrency-safe, so
	// the worker pool shares them.
	profSilent, profFresh *prof.Scope
}

func newSearcher(p *program.Program, peer schema.Peer, h int, opts Options) *searcher {
	opts = opts.withDefaults(p, h)
	s := &searcher{
		prog:   p,
		peer:   peer,
		opts:   opts,
		pool:   Pool(p, opts.PoolFresh),
		consts: p.Constants(),
		cands:  newCandCache(),
	}
	s.fresh = data.NewValueSet()
	for _, v := range s.pool {
		if !s.consts.Has(v) {
			s.fresh.Add(v)
		}
	}
	s.profSilent = opts.Profiler.Scope("decider.silent_runs")
	s.profFresh = opts.Profiler.Scope("decider.fresh_instances")
	return s
}

// viewOf is schema.ViewOf with the view's condition evaluations counted
// into the search's profiler (uncounted when profiling is off).
func (s *searcher) viewOf(in *schema.Instance, p schema.Peer) *schema.ViewInstance {
	return schema.ViewOf(in, s.prog.Schema, p).CountConds(s.opts.Profiler.Cond())
}

// finish folds the searcher's effort counters into Options.Stats, if set.
func (s *searcher) finish() {
	if st := s.opts.Stats; st != nil {
		st.Nodes += s.nodes.Load()
		st.CacheHits += s.cands.hits.Load()
		st.CacheMisses += s.cands.misses.Load()
		st.States += s.states
		st.Workers = s.opts.workers()
	}
}

// finishWith is finish plus cancellation accounting: a search that ends
// because the caller's context was cancelled counts one Stats.Cancelled.
func (s *searcher) finishWith(err error) {
	if st := s.opts.Stats; st != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			st.Cancelled++
		}
	}
	s.finish()
}

// budgetNode charges one search-tree node against the shared budget.
func (s *searcher) budgetNode() error {
	if s.nodes.Add(1) > int64(s.opts.MaxNodes) {
		return ErrBudget
	}
	return nil
}

// candidatesFor returns the applicable rule instantiations on the run's
// current instance, memoized by the instance's exact hash: candidate
// enumeration is a pure function of the current instance, and reconverging
// on a state is the dominant redundancy of the silent-run DFS. The returned
// slice is shared; callers must not mutate it or its valuations.
func (s *searcher) candidatesFor(run *program.Run) []program.Candidate {
	h := hashInstance(run.Current())
	if c, ok := s.cands.get(h); ok {
		return c
	}
	c := run.Candidates(0)
	s.cands.put(h, c)
	return c
}

// instances enumerates the instances over the pool with at most
// MaxTuplesPerRelation tuples per relation, deduplicated up to isomorphism
// over the pool's fresh constants (Lemma A.2 makes this sound). It returns
// ErrBudget if the enumeration exceeds MaxInstances.
func (s *searcher) instances(ctx context.Context) ([]*schema.Instance, error) {
	db := s.prog.Schema.DB
	// Candidate tuples per relation.
	candidates := make(map[string][]data.Tuple)
	for _, name := range db.Names() {
		rel := db.Relation(name)
		candidates[name] = enumerateTuples(rel.Arity(), s.pool)
	}
	results := []*schema.Instance{schema.NewInstance(db)}
	seen := map[uint64]struct{}{hashCanonical(results[0], s.fresh): {}}
	names := db.Names()
	total := 0
	var build func(ri int, cur *schema.Instance) error
	build = func(ri int, cur *schema.Instance) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if ri == len(names) {
			fp := hashCanonical(cur, s.fresh)
			if _, dup := seen[fp]; !dup {
				seen[fp] = struct{}{}
				results = append(results, cur.Clone())
				if len(results) > s.opts.MaxInstances {
					return fmt.Errorf("%w: more than %d instances", ErrBudget, s.opts.MaxInstances)
				}
			}
			return nil
		}
		name := names[ri]
		cands := candidates[name]
		// Choose up to MaxTuplesPerRelation tuples with distinct keys.
		var choose func(start, count int) error
		choose = func(start, count int) error {
			if err := build(ri+1, cur); err != nil {
				return err
			}
			if count == s.opts.MaxTuplesPerRelation {
				return nil
			}
			if s.opts.MaxTuplesTotal > 0 && total >= s.opts.MaxTuplesTotal {
				return nil
			}
			for i := start; i < len(cands); i++ {
				t := cands[i]
				if cur.HasKey(name, t.Key()) {
					continue
				}
				cur.MustPut(name, t)
				total++
				if err := choose(i+1, count+1); err != nil {
					return err
				}
				total--
				cur.Delete(name, t.Key())
			}
			return nil
		}
		return choose(0, 0)
	}
	empty := schema.NewInstance(db)
	if err := build(0, empty); err != nil {
		return nil, err
	}
	s.states += int64(len(results))
	return results, nil
}

// enumerateTuples lists all tuples of the given arity with a pool key and
// pool-or-⊥ non-key values.
func enumerateTuples(arity int, pool []data.Value) []data.Tuple {
	withNull := append([]data.Value{data.Null}, pool...)
	var out []data.Tuple
	cur := make(data.Tuple, arity)
	var rec func(i int)
	rec = func(i int) {
		if i == arity {
			out = append(out, cur.Clone())
			return
		}
		opts := withNull
		if i == 0 {
			opts = pool // keys may not be ⊥
		}
		for _, v := range opts {
			cur[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// visibleEventsOn enumerates the events of the program applicable on `in`
// and visible at the searcher's peer, for the p-fresh instance generation
// of Definition 5.5. Head-only variables range over the pool constants
// outside adom(I′) ∪ const(P), pairwise distinct: the definition's "event
// of P" is read as respecting the run-level convention that such variables
// denote newly invented values. (This is the reading under which both
// claims of Example 5.7 hold — the plain hiring program is not transparent
// for Sue, while its Stage-disciplined variant is: a planted invisible fact
// cannot carry the current stage id, because the stage id is always new.)
func (s *searcher) visibleEventsOn(in *schema.Instance) ([]*program.Event, error) {
	var out []*program.Event
	adom := in.ADom()
	for _, rl := range s.prog.Rules() {
		vi := s.viewOf(in, rl.Peer)
		var bodyVals []query.Valuation
		if s.profFresh == nil {
			bodyVals = rl.Body.Eval(vi, 0)
		} else {
			var es query.EvalStats
			start := time.Now()
			bodyVals = rl.Body.EvalCollect(vi, 0, &es)
			s.profFresh.RuleEval(rl.Name, string(rl.Peer), time.Since(start).Nanoseconds(), &es)
		}
		for _, val := range bodyVals {
			vals := []query.Valuation{val}
			for _, fv := range rl.FreshVars() {
				var next []query.Valuation
				for _, base := range vals {
					for _, c := range s.pool {
						if adom.Has(c) || s.consts.Has(c) {
							continue
						}
						dup := false
						for _, prev := range rl.FreshVars() {
							if prev != fv && base[prev] == c {
								dup = true
								break
							}
						}
						if dup {
							continue
						}
						nv := base.Clone()
						nv[fv] = c
						next = append(next, nv)
					}
				}
				vals = next
			}
			for _, v := range vals {
				if err := s.budgetNode(); err != nil {
					return nil, err
				}
				e, err := program.NewEvent(rl, v)
				if err != nil {
					continue
				}
				after, _, err := program.Apply(in, e, s.prog.Schema, s.opts.Profiler.Cond())
				if err != nil {
					continue
				}
				if e.Peer() == s.peer || !s.viewOf(in, s.peer).Equal(s.viewOf(after, s.peer)) {
					out = append(out, e)
				}
			}
		}
	}
	return out, nil
}

// freshInstances computes the p-fresh instances over the pool: the empty
// instance plus every image e(I′) of an enumerated instance I′ under an
// applicable event visible at p (Definition 5.5), deduplicated.
func (s *searcher) freshInstances(ctx context.Context) ([]*schema.Instance, error) {
	base, err := s.instances(ctx)
	if err != nil {
		return nil, err
	}
	var out []*schema.Instance
	seen := make(map[uint64]struct{})
	add := func(in *schema.Instance) {
		fp := hashInstance(in)
		if _, dup := seen[fp]; !dup {
			seen[fp] = struct{}{}
			out = append(out, in)
		}
	}
	add(schema.NewInstance(s.prog.Schema.DB))
	for _, in := range base {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		events, err := s.visibleEventsOn(in)
		if err != nil {
			return nil, err
		}
		for _, e := range events {
			after, _, err := program.Apply(in, e, s.prog.Schema, s.opts.Profiler.Cond())
			if err != nil {
				continue
			}
			add(after)
		}
	}
	return out, nil
}

// SilentRun is a minimum p-faithful run on an initial instance in which all
// events but the last are silent at p and the last is visible.
type SilentRun struct {
	Initial *schema.Instance
	Run     *program.Run
}

// Events returns the run's event sequence.
func (sr SilentRun) Events() []*program.Event { return sr.Run.Events() }

// allBranches selects the unrestricted DFS in silentRuns.
const allBranches = -1

// silentRuns enumerates the minimum p-faithful runs from initial instance
// `in` whose events are all silent at p except a visible last one, with
// length ≤ maxLen. Head-only variables are instantiated with the first
// pool constants the run still holds fresh (sound up to isomorphism, Lemma
// A.2); constants in `avoid` are never used as fresh values (needed by the
// transparency check, which requires adom(J) ∩ new(α) = ∅). Each
// discovered run is passed to yield as a clone; enumeration stops early
// when yield returns false.
//
// branch restricts the DFS to the branch of the given root candidate index
// (allBranches explores them all) — the unit of top-level fan-out for the
// parallel deciders. Backtracking uses Run.Truncate, which also rewinds the
// run's freshness ledger, so a node costs O(event) instead of O(run²).
func (s *searcher) silentRuns(ctx context.Context, in *schema.Instance, maxLen, branch int, avoid data.ValueSet, yield func(SilentRun) bool) error {
	run := program.NewRunFrom(s.prog, in)
	run.SetProfiler(s.profSilent)
	stop := false
	var dfs func(depth int) error
	dfs = func(depth int) error {
		if stop || depth >= maxLen {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		cands := s.candidatesFor(run)
		for ci, c := range cands {
			if depth == 0 && branch != allBranches && ci != branch {
				continue
			}
			val := c.Val.Clone()
			ok := true
			for _, fv := range c.Rule.FreshVars() {
				v, found := s.pickFresh(run, avoid)
				if !found {
					ok = false
					break
				}
				val[fv] = v
				avoid.Add(v) // reserve within this valuation
			}
			if !ok {
				continue
			}
			if err := s.budgetNode(); err != nil {
				return err
			}
			e, err := program.NewEvent(c.Rule, val)
			if err != nil {
				continue
			}
			if err := run.Append(e); err != nil {
				for _, fv := range c.Rule.FreshVars() {
					delete(avoid, val[fv])
				}
				continue
			}
			last := run.Len() - 1
			if run.VisibleAt(last, s.peer) {
				if s.isMinimumFaithful(run) {
					if !yield(SilentRun{Initial: in, Run: run.Clone()}) {
						stop = true
					}
				}
			} else if err := dfs(depth + 1); err != nil {
				return err
			}
			run.Truncate(last)
			for _, fv := range c.Rule.FreshVars() {
				delete(avoid, val[fv])
			}
			if stop {
				return nil
			}
		}
		return nil
	}
	return dfs(0)
}

// pickFresh returns the first pool constant that is fresh for the run and
// not in avoid.
func (s *searcher) pickFresh(run *program.Run, avoid data.ValueSet) (data.Value, bool) {
	for _, v := range s.pool {
		if run.Fresh(v) && !avoid.Has(v) {
			return v, true
		}
	}
	return data.Null, false
}

// isMinimumFaithful reports whether the run equals its own minimum
// p-faithful scenario: T_p^ω(α, visible(α)) covers every event.
func (s *searcher) isMinimumFaithful(run *program.Run) bool {
	a := faithful.NewAnalysis(run)
	fix := faithful.Fixpoint(a, faithful.NewSeq(run.VisibleEvents(s.peer)...), s.peer)
	return fix.Len() == run.Len()
}
