package synth

import (
	"errors"
	"fmt"

	"collabwf/internal/data"
	"collabwf/internal/program"
	"collabwf/internal/query"
	"collabwf/internal/schema"
	"collabwf/internal/view"
)

// ErrBudget is returned when the soundness search exceeds its node budget.
var ErrBudget = errors.New("synth: validation budget exceeded")

// MatchRun checks the completeness direction of the view-program definition
// for one run: given a run r of the source program P, it constructs a run
// of the synthesized P@p whose transitions replay exactly r@p (own events
// verbatim, foreign events via ω-rules). It returns the matching run, or an
// error describing the first transition that no ω-rule can realize.
func MatchRun(res *Result, r *program.Run, peer schema.Peer) (*program.Run, error) {
	target := view.Of(r, peer)
	vrun := program.NewRun(res.Program)
	for n, entry := range target.Entries {
		if !entry.Omega {
			rl := res.Program.Rule(entry.Event.Rule.Name)
			if rl == nil {
				return nil, fmt.Errorf("synth: view program lacks %s's rule %s", peer, entry.Event.Rule.Name)
			}
			e, err := entry.Event.As(rl)
			if err != nil {
				return nil, err
			}
			if err := vrun.Append(e); err != nil {
				return nil, fmt.Errorf("synth: own event %d not replayable: %w", n, err)
			}
		} else if err := fireOmegaMatching(res, vrun, entry.After, peer); err != nil {
			return nil, fmt.Errorf("synth: transition %d (to %s): %w", n, entry.After, err)
		}
		got := schema.ViewOf(vrun.Current(), res.Program.Schema, peer)
		if !got.Equal(entry.After) {
			return nil, fmt.Errorf("synth: after transition %d: view %s, want %s", n, got, entry.After)
		}
	}
	return vrun, nil
}

// fireOmegaMatching extends vrun with one ω-event whose result view equals
// target, trying every synthesized rule, body valuation, and assignment of
// head-only variables to the target's new values. Each try is appended to
// vrun and truncated away again unless it matches.
func fireOmegaMatching(res *Result, vrun *program.Run, target *schema.ViewInstance, peer schema.Peer) error {
	// Values available for fresh variables: values of the target view that
	// are still fresh for the run.
	var freshCandidates []data.Value
	for _, rel := range target.Relations() {
		for _, t := range target.Tuples(rel) {
			for _, v := range t {
				if vrun.Fresh(v) {
					freshCandidates = append(freshCandidates, v)
				}
			}
		}
	}
	freshCandidates = data.SortValues(freshCandidates)

	for _, rl := range res.OmegaRules {
		vi := schema.ViewOf(vrun.Current(), res.Program.Schema, schema.World)
		for _, val := range rl.Body.Eval(vi, 0) {
			assignments := []query.Valuation{val}
			for _, fv := range rl.FreshVars() {
				var next []query.Valuation
				for _, base := range assignments {
					for _, c := range freshCandidates {
						taken := false
						for _, b := range base {
							if b == c {
								taken = true
								break
							}
						}
						if taken {
							continue
						}
						nv := base.Clone()
						nv[fv] = c
						next = append(next, nv)
					}
				}
				assignments = next
			}
			for _, v := range assignments {
				e, err := program.NewEvent(rl, v)
				if err != nil || vrun.Append(e) != nil {
					continue
				}
				if schema.ViewOf(vrun.Current(), res.Program.Schema, peer).Equal(target) {
					return nil
				}
				vrun.Truncate(vrun.Len() - 1)
			}
		}
	}
	return fmt.Errorf("no ω-rule realizes the transition")
}

// FindSourceRun checks the soundness direction for one run: given a run rv
// of the synthesized P@p, it searches (bounded DFS) for a run of the source
// program P whose p-view matches rv's transitions with ω-events collapsed.
// maxDepth bounds the source run length; maxNodes the explored firings.
func FindSourceRun(p *program.Program, peer schema.Peer, rv *program.Run, maxDepth, maxNodes int) (*program.Run, error) {
	target := view.Of(rv, peer)
	run := program.NewRun(p)
	nodes := 0

	var freshPoolIdx int
	nextFresh := func() data.Value {
		freshPoolIdx++
		return data.Value(fmt.Sprintf("s%d", freshPoolIdx))
	}

	var dfs func(matched int) (*program.Run, error)
	dfs = func(matched int) (*program.Run, error) {
		if matched == len(target.Entries) {
			return run.Clone(), nil
		}
		if run.Len() >= maxDepth {
			return nil, nil
		}
		entry := target.Entries[matched]
		for _, c := range run.Candidates(0) {
			nodes++
			if nodes > maxNodes {
				return nil, ErrBudget
			}
			// Fresh variables: try the values the target view will need,
			// then a brand-new one.
			val := c.Val.Clone()
			fvs := c.Rule.FreshVars()
			var freshVals []data.Value
			if len(fvs) > 0 {
				for _, rel := range entry.After.Relations() {
					for _, t := range entry.After.Tuples(rel) {
						for _, v := range t {
							if run.Fresh(v) {
								freshVals = append(freshVals, v)
							}
						}
					}
				}
				freshVals = append(data.SortValues(freshVals), nextFresh())
			}
			assignments := []query.Valuation{val}
			for _, fv := range fvs {
				var next []query.Valuation
				for _, base := range assignments {
					for _, fvVal := range freshVals {
						nv := base.Clone()
						nv[fv] = fvVal
						next = append(next, nv)
					}
				}
				assignments = next
			}
			for _, v := range assignments {
				e, err := program.NewEvent(c.Rule, v)
				if err != nil || run.Append(e) != nil {
					continue
				}
				last := run.Len() - 1
				nextMatched, ok := matched, true
				if run.VisibleAt(last, peer) {
					// The transition must match the next target entry.
					ok = entry.Omega != (e.Peer() == peer) &&
						(entry.Omega || entry.Event.Equal(e)) &&
						schema.ViewOf(run.Current(), p.Schema, peer).Equal(entry.After)
					nextMatched = matched + 1
				}
				var found *program.Run
				if ok {
					found, err = dfs(nextMatched)
				}
				run.Truncate(last)
				if err != nil || found != nil {
					return found, err
				}
			}
		}
		return nil, nil
	}
	found, err := dfs(0)
	if err != nil {
		return nil, err
	}
	if found == nil {
		return nil, fmt.Errorf("synth: no source run of length ≤ %d matches the view-program run", maxDepth)
	}
	return found, nil
}
