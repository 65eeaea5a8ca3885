package faithful

import (
	"fmt"
	"sort"

	"collabwf/internal/program"
	"collabwf/internal/scenario"
	"collabwf/internal/schema"
)

// IsBoundaryFaithful reports whether the subsequence α of the analyzed
// run's events is boundary faithful (Definition 4.3): for every event of α
// and key k ∈ K(R, e) whose index lies inside an R-lifecycle of k, the
// lifecycle's left boundary belongs to α, and its right boundary too if the
// lifecycle is closed. Boundaries in the initial instance (Left = -1)
// impose no requirement.
func IsBoundaryFaithful(a *Analysis, alpha Seq) bool {
	for i := range alpha {
		if !boundaryClosed(a, alpha, i, nil) {
			return false
		}
	}
	return true
}

// IsModificationFaithful reports whether α is modification faithful for p
// (Definition 4.4): for every event e_j ∈ α of peer q and key k ∈ K(R, e_j)
// lying in the same R-lifecycle of k, every earlier event of the lifecycle
// that filled an attribute of att(R, q) ∪ att(R, p) on the tuple with key k
// belongs to α.
func IsModificationFaithful(a *Analysis, alpha Seq, p schema.Peer) bool {
	for i := range alpha {
		if !modificationClosed(a, alpha, i, p, nil) {
			return false
		}
	}
	return true
}

// IsFaithful reports whether α is p-faithful (Definition 4.5): it contains
// all events visible at p, is boundary faithful, and is modification
// faithful for p.
func IsFaithful(a *Analysis, alpha Seq, p schema.Peer) bool {
	for _, i := range a.Run.VisibleEvents(p) {
		if !alpha.Has(i) {
			return false
		}
	}
	return IsBoundaryFaithful(a, alpha) && IsModificationFaithful(a, alpha, p)
}

// Step applies the operator T_p(ρ, ·) once: it returns α together with
// every event whose presence is required by boundary or modification
// p-faithfulness due to the events already in α.
func Step(a *Analysis, alpha Seq, p schema.Peer) Seq {
	out := alpha.Clone()
	for i := range alpha {
		boundaryClosed(a, alpha, i, out)
		modificationClosed(a, alpha, i, p, out)
	}
	return out
}

// Fixpoint computes T_p^ω(ρ, α): the least fixpoint of T_p(ρ, ·) above α.
//
// The requirements of an event depend only on the event and the run — not
// on the rest of the subsequence — so the fixpoint is reachability in the
// (memoized) requirement graph, computed by a worklist instead of repeated
// whole-set passes. Iterated Step would cost a pass per dependency-chain
// link; the worklist touches each event once.
func Fixpoint(a *Analysis, alpha Seq, p schema.Peer) Seq {
	out := alpha.Clone()
	queue := alpha.Sorted()
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, j := range a.requirements(i, p) {
			if out.Add(j) {
				queue = append(queue, j)
			}
		}
	}
	return out
}

// boundaryClosed checks the boundary requirements of event i against α.
// When missing is non-nil the required events are added to it and the
// result is always true; otherwise the function reports whether all
// requirements are met.
func boundaryClosed(a *Analysis, alpha Seq, i int, missing Seq) bool {
	e := a.Run.Event(i)
	for _, rel := range e.KeyRelations() {
		for _, k := range e.KeysOf(rel) {
			lc, ok := a.LifecycleAt(rel, k, i)
			if !ok {
				continue
			}
			if lc.Left >= 0 && !alpha.Has(lc.Left) {
				if missing == nil {
					return false
				}
				missing.Add(lc.Left)
			}
			if lc.Closed() && !alpha.Has(lc.Right) {
				if missing == nil {
					return false
				}
				missing.Add(lc.Right)
			}
		}
	}
	return true
}

// modificationClosed checks the modification requirements of event i (for
// peer p) against α, in the same reporting/collecting modes as
// boundaryClosed.
func modificationClosed(a *Analysis, alpha Seq, i int, p schema.Peer, missing Seq) bool {
	e := a.Run.Event(i)
	q := e.Peer()
	for _, rel := range e.KeyRelations() {
		for _, k := range e.KeysOf(rel) {
			lc, ok := a.LifecycleAt(rel, k, i)
			if !ok {
				continue
			}
			filled := a.filledAt[lcID{rel, k}]
			for _, j := range filled[sort.SearchInts(filled, lc.Left):] {
				if j >= i {
					break
				}
				if alpha.Has(j) {
					continue
				}
				if a.filledRelevant(j, rel, k, q, p) {
					if missing == nil {
						return false
					}
					missing.Add(j)
				}
			}
		}
	}
	return true
}

// Minimal computes the unique minimal p-faithful scenario of the analyzed
// run (Theorem 4.7): run(T_p^ω(ρ, α)) where α is the set of events visible
// at p. The returned Seq identifies the events; the replayed subrun is
// returned alongside. By Lemma 4.6 the fixpoint always yields a subrun and
// a scenario; an error therefore indicates a bug and is surfaced loudly.
func Minimal(a *Analysis, p schema.Peer) (Seq, *program.Run, error) {
	alpha := NewSeq(a.Run.VisibleEvents(p)...)
	fix := Fixpoint(a, alpha, p)
	sub, err := scenario.Replay(a.Run, fix.Sorted())
	if err != nil {
		return nil, nil, fmt.Errorf("faithful: fixpoint is not a subrun (Lemma 4.6 violated): %w", err)
	}
	if !scenario.IsScenario(a.Run, p, fix.Sorted()) {
		return nil, nil, fmt.Errorf("faithful: fixpoint is not a scenario (Lemma 4.6 violated)")
	}
	return fix, sub, nil
}

// IsFaithfulScenario reports whether α is a p-faithful scenario of the
// analyzed run: p-faithful as a subsequence and a scenario once replayed.
// (By Lemma 4.6 p-faithfulness implies scenario-hood; the replay check
// guards the implementation.)
func IsFaithfulScenario(a *Analysis, alpha Seq, p schema.Peer) bool {
	if !IsFaithful(a, alpha, p) {
		return false
	}
	return scenario.IsScenario(a.Run, p, alpha.Sorted())
}

// requirements returns (memoized) the direct requirements of event i for
// peer p: the events its boundary and modification faithfulness demand.
func (a *Analysis) requirements(i int, p schema.Peer) []int {
	memo := a.reqMemo[p]
	if memo == nil {
		memo = make([][]int, a.Run.Len())
		a.reqMemo[p] = memo
	}
	if i < len(memo) && memo[i] != nil {
		return memo[i]
	}
	missing := NewSeq()
	single := NewSeq(i)
	boundaryClosed(a, single, i, missing)
	modificationClosed(a, single, i, p, missing)
	reqs := missing.Sorted()
	if reqs == nil {
		reqs = []int{}
	}
	if i < len(memo) {
		memo[i] = reqs
	}
	return reqs
}
