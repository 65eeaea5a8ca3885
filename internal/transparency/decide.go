package transparency

import (
	"context"
	"fmt"
	"sort"

	"collabwf/internal/data"
	"collabwf/internal/obs"
	"collabwf/internal/par"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/view"
)

// stampSearch copies the searcher's effort counters onto a decider span, so
// a retained trace of a Certify call carries the same numbers that
// Options.Stats (and the wf_decider_* families) report.
func (s *searcher) stampSearch(sp *obs.Span) {
	sp.SetAttr("nodes", s.nodes.Load())
	sp.SetAttr("cache_hits", s.cands.hits.Load())
	sp.SetAttr("cache_misses", s.cands.misses.Load())
	sp.SetAttr("states", s.states)
	sp.SetAttr("workers", s.opts.workers())
}

// BoundViolation witnesses a failure of h-boundedness: a minimum p-faithful
// run of length h+1 on some initial instance, all of whose events but the
// last are silent at p.
type BoundViolation struct {
	Initial *schema.Instance
	Events  []*program.Event
}

// String renders the violation.
func (v *BoundViolation) String() string {
	s := fmt.Sprintf("initial %s:", v.Initial)
	for _, e := range v.Events {
		s += " " + e.String()
	}
	return s
}

// CheckBounded decides whether p is h-bounded for the peer (Definition 5.8,
// Theorem 5.10) with an uncancellable context; see CheckBoundedCtx.
func CheckBounded(p *program.Program, peer schema.Peer, h int, opts Options) (*BoundViolation, error) {
	return CheckBoundedCtx(context.Background(), p, peer, h, opts)
}

// CheckBoundedCtx decides whether p is h-bounded for the peer (Definition
// 5.8, Theorem 5.10): it searches for an instance I and a minimum
// p-faithful run of length h+1 on I whose events are all silent at p except
// the last. A nil violation means the program is h-bounded (relative to the
// search caps; cap overflow returns ErrBudget instead). The search fans out
// over (instance, top-level branch) work items on Options.Parallelism
// workers; the witness returned is the one the sequential search would find
// first, for every worker count. Cancelling ctx aborts the search with
// ctx.Err().
func CheckBoundedCtx(ctx context.Context, p *program.Program, peer schema.Peer, h int, opts Options) (v *BoundViolation, err error) {
	ctx, sp := obs.StartSpan(ctx, "transparency.check_bounded")
	sp.SetAttr("peer", string(peer))
	sp.SetAttr("h", h)
	defer sp.End()
	s := newSearcher(p, peer, h, opts)
	defer func() {
		s.finishWith(err)
		s.stampSearch(sp)
		sp.SetAttr("violation", v != nil)
		sp.SetError(err)
	}()
	_, esp := obs.StartSpan(ctx, "transparency.enumerate_instances")
	instances, err := s.instances(ctx)
	esp.SetAttr("instances", len(instances))
	esp.SetError(err)
	esp.End()
	if err != nil {
		return nil, err
	}
	jobs, err := s.branchJobs(ctx, instances)
	if err != nil {
		return nil, err
	}
	sctx, ssp := obs.StartSpan(ctx, "transparency.search")
	ssp.SetAttr("jobs", len(jobs))
	defer ssp.End()
	ctx = sctx
	found := make([]*BoundViolation, len(jobs))
	idx, err := par.ForEachOrdered(ctx, s.opts.workers(), len(jobs), func(jctx context.Context, i int) (bool, error) {
		j := jobs[i]
		err := s.silentRuns(jctx, j.in, h+1, j.branch, data.NewValueSet(), func(sr SilentRun) bool {
			if sr.Run.Len() == h+1 {
				found[i] = &BoundViolation{Initial: sr.Initial, Events: sr.Run.Events()}
				return false
			}
			return true
		})
		return found[i] != nil, err
	})
	if err != nil {
		return nil, err
	}
	if idx >= 0 {
		return found[idx], nil
	}
	return nil, nil
}

// branchJob is one unit of decider fan-out: a top-level silent-run branch
// (root candidate index) of one initial instance. Job order is
// instance-major, branch-minor — the sequential DFS order.
type branchJob struct {
	in     *schema.Instance
	branch int
}

// branchJobs expands instances into per-branch work items. Root candidate
// lists come from the shared memo cache, so the expansion also warms it.
func (s *searcher) branchJobs(ctx context.Context, instances []*schema.Instance) ([]branchJob, error) {
	var jobs []branchJob
	for _, in := range instances {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		root := program.NewRunFrom(s.prog, in)
		root.SetProfiler(s.profSilent)
		n := len(s.candidatesFor(root))
		for b := 0; b < n; b++ {
			jobs = append(jobs, branchJob{in: in, branch: b})
		}
	}
	return jobs, nil
}

// Bound finds the smallest h for which the program is h-bounded for the
// peer, trying h = 0..maxH; see BoundCtx.
func Bound(p *program.Program, peer schema.Peer, maxH int, opts Options) (int, bool, error) {
	return BoundCtx(context.Background(), p, peer, maxH, opts)
}

// BoundCtx finds the smallest h for which the program is h-bounded for the
// peer, trying h = 0..maxH. It returns maxH+1, false if none is found.
func BoundCtx(ctx context.Context, p *program.Program, peer schema.Peer, maxH int, opts Options) (h int, ok bool, err error) {
	ctx, sp := obs.StartSpan(ctx, "transparency.bound")
	sp.SetAttr("peer", string(peer))
	sp.SetAttr("max_h", maxH)
	defer func() {
		sp.SetAttr("h", h)
		sp.SetAttr("bounded", ok)
		sp.SetError(err)
		sp.End()
	}()
	for h = 0; h <= maxH; h++ {
		v, err := CheckBoundedCtx(ctx, p, peer, h, opts)
		if err != nil {
			return 0, false, err
		}
		if v == nil {
			return h, true, nil
		}
	}
	return maxH + 1, false, nil
}

// TransparencyViolation witnesses a failure of transparency for p
// (Definition 5.6, via the reformulation (†) in the proof of Theorem 5.11):
// two p-fresh instances with the same p-view and a minimum p-faithful
// silent-then-visible run applicable on the first but not equivalently on
// the second.
type TransparencyViolation struct {
	I, J   *schema.Instance
	Events []*program.Event
	Reason string
}

// String renders the violation.
func (v *TransparencyViolation) String() string {
	s := fmt.Sprintf("fresh instances I=%s and J=%s agree for the peer, but", v.I, v.J)
	for _, e := range v.Events {
		s += " " + e.String()
	}
	return s + ": " + v.Reason
}

// CheckTransparent decides transparency of an h-bounded program for the
// peer with an uncancellable context; see CheckTransparentCtx.
func CheckTransparent(p *program.Program, peer schema.Peer, h int, opts Options) (*TransparencyViolation, error) {
	return CheckTransparentCtx(context.Background(), p, peer, h, opts)
}

// CheckTransparentCtx decides transparency of an h-bounded program for the
// peer (Theorem 5.11): for every pair of p-fresh instances I, J over the
// pool with I@p = J@p, every minimum p-faithful run α on I with all but the
// last event silent (|α| ≤ h+1 by boundedness) must also be such a run on J
// with α(I)@p = α(J)@p, whenever adom(J) ∩ new(α) = ∅ (the search draws new
// values outside both instances, which is sound up to isomorphism). A nil
// violation means the program is transparent for p relative to the caps.
// The ordered (I, J) pairs fan out on Options.Parallelism workers; the
// witness returned is the one the sequential search would find first, for
// every worker count. Cancelling ctx aborts the search with ctx.Err().
func CheckTransparentCtx(ctx context.Context, p *program.Program, peer schema.Peer, h int, opts Options) (v *TransparencyViolation, err error) {
	ctx, sp := obs.StartSpan(ctx, "transparency.check_transparent")
	sp.SetAttr("peer", string(peer))
	sp.SetAttr("h", h)
	defer sp.End()
	s := newSearcher(p, peer, h, opts)
	defer func() {
		s.finishWith(err)
		s.stampSearch(sp)
		sp.SetAttr("violation", v != nil)
		sp.SetError(err)
	}()
	_, fsp := obs.StartSpan(ctx, "transparency.fresh_instances")
	fresh, err := s.freshInstances(ctx)
	fsp.SetAttr("instances", len(fresh))
	fsp.SetError(err)
	fsp.End()
	if err != nil {
		return nil, err
	}
	// Group fresh instances by their p-view. The grouping keeps exact
	// string fingerprints: a hash collision here could merge two distinct
	// p-views and fabricate a violation, where a collision in the dedup and
	// memo layers only merges states.
	groups := make(map[string][]*schema.Instance)
	for _, in := range fresh {
		fp := s.viewOf(in, peer).Fingerprint()
		groups[fp] = append(groups[fp], in)
	}
	groupKeys := make([]string, 0, len(groups))
	for k := range groups {
		groupKeys = append(groupKeys, k)
	}
	sort.Strings(groupKeys)
	// A pair job carries adom(J), which the silent runs from I must not
	// draw new values from; each J's domain is computed once.
	type pairJob struct {
		src, dst *schema.Instance
		dstADom  data.ValueSet
	}
	var jobs []pairJob
	for _, gk := range groupKeys {
		group := groups[gk]
		if len(group) < 2 {
			continue
		}
		adoms := make([]data.ValueSet, len(group))
		for i, in := range group {
			adoms[i] = in.ADom()
		}
		for _, src := range group {
			for di, dst := range group {
				if src != dst {
					jobs = append(jobs, pairJob{src, dst, adoms[di]})
				}
			}
		}
	}
	sctx, ssp := obs.StartSpan(ctx, "transparency.search")
	ssp.SetAttr("jobs", len(jobs))
	defer ssp.End()
	ctx = sctx
	found := make([]*TransparencyViolation, len(jobs))
	idx, err := par.ForEachOrdered(ctx, s.opts.workers(), len(jobs), func(jctx context.Context, i int) (bool, error) {
		j := jobs[i]
		avoid := data.NewValueSet()
		avoid.AddAll(j.dstADom)
		err := s.silentRuns(jctx, j.src, h+1, allBranches, avoid, func(sr SilentRun) bool {
			if reason := replayMatches(s, sr, j.dst); reason != "" {
				found[i] = &TransparencyViolation{I: j.src, J: j.dst, Events: sr.Run.Events(), Reason: reason}
				return false
			}
			return true
		})
		return found[i] != nil, err
	})
	if err != nil {
		return nil, err
	}
	if idx >= 0 {
		return found[idx], nil
	}
	return nil, nil
}

// replayMatches replays the silent run sr on instance dst and reports the
// first divergence from the transparency requirements ("" if none): the
// run must be applicable, all events but the last silent at the peer, the
// last visible, minimum p-faithful, and the final views must agree.
func replayMatches(s *searcher, sr SilentRun, dst *schema.Instance) string {
	run := program.NewRunFrom(s.prog, dst)
	run.SetProfiler(s.profSilent)
	for i, e := range sr.Run.Events() {
		if err := run.Append(e); err != nil {
			return fmt.Sprintf("event %d not applicable on J: %v", i, err)
		}
	}
	n := run.Len()
	for i := 0; i < n-1; i++ {
		if run.VisibleAt(i, s.peer) {
			return fmt.Sprintf("event %d is visible on J but silent on I", i)
		}
	}
	if !run.VisibleAt(n-1, s.peer) {
		return "last event is silent on J but visible on I"
	}
	if !s.isMinimumFaithful(run) {
		return "run is not minimum p-faithful on J"
	}
	if !view.Of(sr.Run, s.peer).Equal(view.Of(run, s.peer)) {
		return "final views differ: α(I)@p ≠ α(J)@p"
	}
	return ""
}
