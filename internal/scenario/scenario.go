// Package scenario implements subruns and scenarios (Section 3 of the
// paper). A subrun of a run ρ keeps a subsequence of ρ's events, replayed
// from the same initial instance; a scenario of ρ at a peer p is a subrun
// observationally equivalent to ρ for p (Definition 3.2).
//
// Finding a minimum scenario is NP-complete (Theorem 3.3) and testing
// minimality is coNP-complete (Theorem 3.4), so the exact procedures here
// are bounded exhaustive searches guarded by explicit caps, while
// Greedy computes a 1-minimal scenario in polynomial time.
package scenario

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"collabwf/internal/obs"
	"collabwf/internal/par"
	"collabwf/internal/prof"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/view"
)

// ErrBudget is returned when an exact search would exceed its configured
// bounds (the underlying problems are NP-/coNP-complete).
var ErrBudget = errors.New("scenario: search budget exceeded")

// Replay re-executes the events of r selected by indices (strictly
// increasing positions into e(ρ)), starting from r's initial instance. It
// returns the resulting subrun or an error if the subsequence does not
// yield a run. The subrun of a profiled run is profiled too (see
// replayScope).
func Replay(r *program.Run, indices []int) (*program.Run, error) {
	return replayScoped(r, indices, replayScope(r))
}

// replayScope attributes the subruns replayed from r to r's profiler under
// the "scenario.replay" phase (nil when r is unprofiled), so a profiled
// run's scenario work counts against the run that asked for it.
func replayScope(r *program.Run) *prof.Scope {
	return r.Profiler().Profiler().Scope("scenario.replay")
}

// replayScoped is Replay with a profiler scope attached to the subrun, so
// the exact searches attribute their replay re-checks per rule.
func replayScoped(r *program.Run, indices []int, sc *prof.Scope) (*program.Run, error) {
	sub := program.NewRunFrom(r.Prog, r.Initial)
	sub.SetProfiler(sc)
	prev := -1
	for _, i := range indices {
		if i <= prev || i >= r.Len() {
			return nil, fmt.Errorf("scenario: bad index sequence at %d", i)
		}
		prev = i
		if err := sub.Append(r.Event(i)); err != nil {
			return nil, fmt.Errorf("scenario: event %d not replayable: %w", i, err)
		}
	}
	return sub, nil
}

// IsSubrun reports whether the selected subsequence of events yields a run.
func IsSubrun(r *program.Run, indices []int) bool {
	_, err := Replay(r, indices)
	return err == nil
}

// IsScenario reports whether the selected subsequence yields a scenario of
// r at p: a subrun with ρ@p = ρ̂@p.
func IsScenario(r *program.Run, p schema.Peer, indices []int) bool {
	return isScenarioAgainst(r, p, view.Of(r, p), indices)
}

// isScenarioAgainst is IsScenario with the target view ρ@p precomputed, so
// the exact searches compute it once instead of per candidate. The target
// must be warmed (warmView) before concurrent use. Candidates replay under
// replayScope(r), as in Replay.
func isScenarioAgainst(r *program.Run, p schema.Peer, target *view.RunView, indices []int) bool {
	return isScenarioScoped(r, p, target, indices, replayScope(r))
}

// isScenarioScoped is isScenarioAgainst with a profiler scope for the
// candidate replay (nil = profiling off).
func isScenarioScoped(r *program.Run, p schema.Peer, target *view.RunView, indices []int, sc *prof.Scope) bool {
	sub, err := replayScoped(r, indices, sc)
	if err != nil {
		return false
	}
	return target.Equal(view.Of(sub, p))
}

// warmView fills every relation-scan cache of the view's instances, after
// which the view is read-only and safe to share across goroutines.
func warmView(rv *view.RunView) {
	for _, e := range rv.Entries {
		for _, rel := range e.After.Relations() {
			e.After.Tuples(rel)
		}
	}
}

// Options bounds the exact searches.
type Options struct {
	// MaxChoice caps the number of invisible events the search may choose
	// from; beyond it the exact procedures return ErrBudget. Default 20.
	MaxChoice int
	// MaxChecks caps the number of candidate subsequences replayed.
	// Default 1 << 22. In MinimumCtx the counter is shared across workers,
	// so when the budget is the binding constraint the exact overflow point
	// — though not the error — can vary with Parallelism.
	MaxChecks int
	// Parallelism is the worker-pool width for Minimum's scan of the
	// subset space. 0 selects GOMAXPROCS; 1 forces the sequential scan.
	// The scenario returned is identical for every width.
	Parallelism int
	// Stats, when non-nil, accumulates search-effort counters across calls.
	Stats *Stats
	// Profiler, when non-nil, attributes MinimumCtx's replay cost per rule
	// under the "scenario.minimum" phase.
	Profiler *prof.Profiler
}

// Stats reports the effort of the exact scenario searches. Pass a *Stats in
// Options.Stats to collect it; repeated calls accumulate.
type Stats struct {
	// Checks counts candidate subsequences replayed against the target
	// view.
	Checks int64 `json:"checks"`
	// Jobs counts the (size, chunk) work items MinimumCtx fanned out.
	Jobs int64 `json:"jobs"`
	// Cancelled counts searches abandoned by context cancellation.
	Cancelled int64 `json:"cancelled"`
	// Workers is the worker-pool width the last call resolved to.
	Workers int `json:"workers"`
}

// Delta returns the counter difference s − before (Workers, a last-value
// gauge, is carried over from s).
func (s Stats) Delta(before Stats) Stats {
	return Stats{
		Checks:    s.Checks - before.Checks,
		Jobs:      s.Jobs - before.Jobs,
		Cancelled: s.Cancelled - before.Cancelled,
		Workers:   s.Workers,
	}
}

func (o Options) withDefaults() Options {
	if o.MaxChoice == 0 {
		o.MaxChoice = 20
	}
	if o.MaxChecks == 0 {
		o.MaxChecks = 1 << 22
	}
	return o
}

// Minimum finds a minimum-length scenario of r at p by exhaustive search in
// order of increasing length with an uncancellable context; see MinimumCtx.
func Minimum(r *program.Run, p schema.Peer, opts Options) ([]int, error) {
	return MinimumCtx(context.Background(), r, p, opts)
}

// chunkBits sets the granularity of Minimum's fan-out: each work item scans
// a contiguous 2^chunkBits slice of the subset space.
const chunkBits = 12

// MinimumCtx finds a minimum-length scenario of r at p by exhaustive search
// in order of increasing length (Theorem 3.3: the decision problem is
// NP-complete, so this is exponential in the number of invisible events).
// The visible events of r are always included. It returns the indices of a
// minimum scenario.
//
// The subset space is enumerated by increasing popcount; within each size
// it is cut into contiguous mask chunks scanned on Options.Parallelism
// workers, size-major chunk-minor — the sequential scan order — so the
// scenario returned (the one with the lexicographically least mask among
// those of minimum length) is identical for every worker count. Cancelling
// ctx aborts the search with ctx.Err().
func MinimumCtx(ctx context.Context, r *program.Run, p schema.Peer, opts Options) (out []int, err error) {
	opts = opts.withDefaults()
	ctx, sp := obs.StartSpan(ctx, "scenario.minimum")
	sp.SetAttr("peer", string(p))
	sp.SetAttr("run_len", r.Len())
	defer sp.End()
	var checks atomic.Int64
	var njobs int
	defer func() {
		sp.SetAttr("checks", checks.Load())
		sp.SetAttr("jobs", njobs)
		sp.SetAttr("workers", par.Workers(opts.Parallelism))
		sp.SetError(err)
		if st := opts.Stats; st != nil {
			st.Checks += checks.Load()
			st.Jobs += int64(njobs)
			st.Workers = par.Workers(opts.Parallelism)
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				st.Cancelled++
			}
		}
	}()
	psc := opts.Profiler.Scope("scenario.minimum")
	visible, invisible := split(r, p)
	sp.SetAttr("invisible", len(invisible))
	if len(invisible) > opts.MaxChoice {
		return nil, fmt.Errorf("%w: %d invisible events > MaxChoice %d", ErrBudget, len(invisible), opts.MaxChoice)
	}
	n := len(invisible)
	target := view.Of(r, p)
	warmView(target)
	total := uint64(1) << uint(n)
	chunk := uint64(1) << chunkBits
	if chunk > total {
		chunk = total
	}
	chunks := int(total / chunk) // both are powers of two
	type job struct {
		size   int
		lo, hi uint64
	}
	jobs := make([]job, 0, (n+1)*chunks)
	for size := 0; size <= n; size++ {
		for c := uint64(0); c < uint64(chunks); c++ {
			jobs = append(jobs, job{size: size, lo: c * chunk, hi: (c + 1) * chunk})
		}
	}
	njobs = len(jobs)
	found := make([][]int, len(jobs))
	idx, err := par.ForEachOrdered(ctx, par.Workers(opts.Parallelism), len(jobs), func(jctx context.Context, i int) (bool, error) {
		j := jobs[i]
		for mask := j.lo; mask < j.hi; mask++ {
			if mask&1023 == 0 {
				if err := jctx.Err(); err != nil {
					return false, err
				}
			}
			if bits.OnesCount64(mask) != j.size {
				continue
			}
			if checks.Add(1) > int64(opts.MaxChecks) {
				return false, ErrBudget
			}
			indices := merge(visible, invisible, mask)
			if isScenarioScoped(r, p, target, indices, psc) {
				found[i] = indices
				return true, nil
			}
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	if idx >= 0 {
		return found[idx], nil
	}
	return nil, fmt.Errorf("scenario: no scenario found (the full run should always be one)")
}

// Greedy computes a 1-minimal scenario of r at p in polynomial time: it
// starts from the full run and removes invisible events one at a time,
// keeping each removal that preserves scenario-hood. The result is a
// scenario from which no single event can be dropped; it is not guaranteed
// to be minimal in the subsequence order (testing that is coNP-complete),
// nor minimum in length. Events are tried from the latest backwards (see
// GreedyOrder for the ablation).
func Greedy(r *program.Run, p schema.Peer) []int {
	return GreedyOrder(r, p, false)
}

// GreedyOrder is Greedy with an explicit removal order: frontFirst tries
// removing the earliest events first, otherwise the latest. Passes repeat
// until a full pass removes nothing, so the result is 1-minimal for either
// order; backward removal sheds dependents before their prerequisites and
// usually converges in a single pass (measured by the ablation
// benchmarks).
func GreedyOrder(r *program.Run, p schema.Peer, frontFirst bool) []int {
	current := make([]int, r.Len())
	for i := range current {
		current[i] = i
	}
	visible := make(map[int]bool)
	for _, i := range r.VisibleEvents(p) {
		visible[i] = true
	}
	target := view.Of(r, p)
	for {
		changed := false
		order := make([]int, len(current))
		copy(order, current)
		if !frontFirst {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, i := range order {
			if visible[i] {
				continue
			}
			candidate := make([]int, 0, len(current)-1)
			for _, j := range current {
				if j != i {
					candidate = append(candidate, j)
				}
			}
			if isScenarioAgainst(r, p, target, candidate) {
				current = candidate
				changed = true
			}
		}
		if !changed {
			return current
		}
	}
}

// IsMinimal reports whether the subsequence `indices` (which must be a
// scenario of r at p) is a minimal scenario: no strict subsequence is a
// scenario (Theorem 3.4: coNP-complete, so this is an exponential search
// over the removable events, bounded by opts).
func IsMinimal(r *program.Run, p schema.Peer, indices []int, opts Options) (bool, error) {
	opts = opts.withDefaults()
	target := view.Of(r, p)
	if !isScenarioAgainst(r, p, target, indices) {
		return false, fmt.Errorf("scenario: the given subsequence is not a scenario")
	}
	visible := make(map[int]bool)
	for _, i := range r.VisibleEvents(p) {
		visible[i] = true
	}
	var fixed, removable []int
	for _, i := range indices {
		if visible[i] {
			fixed = append(fixed, i)
		} else {
			removable = append(removable, i)
		}
	}
	n := len(removable)
	if n > opts.MaxChoice {
		return false, fmt.Errorf("%w: %d removable events > MaxChoice %d", ErrBudget, n, opts.MaxChoice)
	}
	checks := 0
	defer func() {
		if st := opts.Stats; st != nil {
			st.Checks += int64(checks)
		}
	}()
	// Any strict subsequence keeps the visible events (dropping one can
	// never preserve the view), so enumerate strict subsets of removable.
	for mask := uint64(0); mask < 1<<uint(n); mask++ {
		if bits.OnesCount64(mask) == n {
			continue // not strict
		}
		checks++
		if checks > opts.MaxChecks {
			return false, ErrBudget
		}
		if isScenarioAgainst(r, p, target, merge(fixed, removable, mask)) {
			return false, nil
		}
	}
	return true, nil
}

// split partitions the event indices of r into those visible and invisible
// at p.
func split(r *program.Run, p schema.Peer) (visible, invisible []int) {
	vis := make(map[int]bool)
	for _, i := range r.VisibleEvents(p) {
		vis[i] = true
	}
	for i := 0; i < r.Len(); i++ {
		if vis[i] {
			visible = append(visible, i)
		} else {
			invisible = append(invisible, i)
		}
	}
	return visible, invisible
}

// merge combines the fixed indices with the invisible indices selected by
// mask into a sorted index sequence.
func merge(fixed, choice []int, mask uint64) []int {
	out := make([]int, 0, len(fixed)+bits.OnesCount64(mask))
	fi, ci := 0, 0
	for fi < len(fixed) || ci < len(choice) {
		takeChoice := false
		if fi == len(fixed) {
			takeChoice = true
		} else if ci < len(choice) && choice[ci] < fixed[fi] {
			takeChoice = true
		}
		if takeChoice {
			if mask&(1<<uint(ci)) != 0 {
				out = append(out, choice[ci])
			}
			ci++
		} else {
			out = append(out, fixed[fi])
			fi++
		}
	}
	return out
}
