package faithful

import (
	"fmt"

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
	ok := true
	for i := range alpha {
		a.boundaryReqs(i, func(j int) { ok = ok && alpha.Has(j) })
	}
	return ok
}

// IsModificationFaithful reports whether α is modification faithful for p
// (Definition 4.4): for every event e_j ∈ α of peer q and key k ∈ K(R, e_j)
// lying in the same R-lifecycle of k, every earlier event of the lifecycle
// that filled an attribute of att(R, q) ∪ att(R, p) on the tuple with key k
// belongs to α.
func IsModificationFaithful(a *Analysis, alpha Seq, p schema.Peer) bool {
	ok := true
	for i := range alpha {
		a.modificationReqs(i, p, func(j int) { ok = ok && alpha.Has(j) })
	}
	return ok
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
	add := func(j int) { out[j] = struct{}{} }
	for i := range alpha {
		a.boundaryReqs(i, add)
		a.modificationReqs(i, p, add)
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

// boundaryReqs calls req with the boundary requirements of event i
// (Definition 4.3): for every key of K(R, e_i) inside an R-lifecycle, the
// lifecycle's left boundary unless it lies in the initial instance, and its
// right boundary once closed. i itself may be among them, and an event may
// be passed more than once.
func (a *Analysis) boundaryReqs(i int, req func(int)) {
	for _, l := range a.keyLCs.row(i) {
		lc := &a.lcs[l]
		if lc.left >= 0 {
			req(int(lc.left))
		}
		if lc.right >= 0 {
			req(int(lc.right))
		}
	}
}

// modificationReqs calls req with the modification requirements of event i
// for peer p (Definition 4.4): for every key of K(R, e_i) inside an
// R-lifecycle, the earlier events of the lifecycle that filled an
// attribute of att(R, q) ∪ att(R, p), q being the peer of e_i. An event may
// be passed more than once.
func (a *Analysis) modificationReqs(i int, p schema.Peer, req func(int)) {
	q := a.Run.Event(i).Peer()
	for _, l := range a.keyLCs.row(i) {
		lc := &a.lcs[l]
		// Newest fill first: skip the fills at or after i.
		for k := lc.fills; k >= 0; k = a.fills[k].prev {
			if f := &a.fills[k]; int(f.event) < i && a.relevantFill(lc.rel, f.pos, q, p) {
				req(int(f.event))
			}
		}
	}
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
	add := func(j int) {
		if j != i {
			missing.Add(j)
		}
	}
	a.boundaryReqs(i, add)
	a.modificationReqs(i, p, add)
	reqs := missing.Sorted()
	if reqs == nil {
		reqs = []int{}
	}
	if i < len(memo) {
		memo[i] = reqs
	}
	return reqs
}
