package faithful

import (
	"fmt"
	"slices"
	"sync/atomic"

	"collabwf/internal/program"
	"collabwf/internal/schema"
)

// mainID is the pseudo set id of the maintained minimal faithful scenario
// in the lifecycle reference index.
const mainID = -1

// Maintainer incrementally maintains, for each of a set of peers, the
// minimal p-faithful scenario of a growing run, as outlined at the end of
// Section 4 of the paper. Besides T_p^ω(ρ, α) for the visible events α, it
// maintains T_p^ω(ρ, {f}) for every event f — a minimal boundary- and
// modification-faithful explanation of the individual event. Each new event
// costs a single application of the T_p operator plus set unions per peer,
// instead of a fixpoint recomputation over the whole run.
//
// The peers share one Analysis: everything but the relevant-attribute test
// is the same for every peer, so each event's lifecycles are computed once.
// The maintainer advances in lockstep: the analysis by one event, then
// every peer's state by the same event, so no peer ever reads the analysis
// ahead of its own step.
//
// Every maintained set is an append-only log of event indices, so a union
// costs O(|Δ|), the events it adds, and never copies the set it grows (see
// closure for why that also makes Freeze O(1)).
type Maintainer struct {
	a     *Analysis
	peers []*peerState
}

// peerState is one peer's share of a Maintainer.
type peerState struct {
	p schema.Peer

	// perEvent[f] holds T_p^ω(ρ, {f}). Cells are never replaced, only
	// extended.
	perEvent []*closure
	// main is T_p^ω(ρ, α) in the order its events joined; inMain is its
	// membership, indexed by event.
	main   []int
	inMain []bool
	// vis lists, ascending, the events visible at p.
	vis []int
	// refs[l] lists the set ids (event indices, or mainID) whose closure
	// references a key of the open lifecycle l, possibly more than once;
	// when an event closes the lifecycle, those closures must absorb it.
	refs [][]int32
	// mark is scratch membership for building and deduplicating unions;
	// it is all false between calls.
	mark []bool
}

// closure is one per-event explanation T_p^ω(ρ, {f}): an append-only log
// of event indices behind an atomic pointer, so the maintainer can extend
// it while frozen captures read it.
//
// The log is ordered by the step that added each segment, and a segment
// added while processing event d lies in [0, d] and starts with d itself
// (d closes the lifecycle that makes the set absorb d's closure, and no
// set holds d before step d). So the set as of n processed events is the
// log's prefix before the first index ≥ n — a capture needs no per-set
// state, which keeps Freeze O(1).
type closure struct {
	log atomic.Pointer[[]int]
}

func newClosure(log []int) *closure {
	c := &closure{}
	c.log.Store(&log)
	return c
}

// indices returns the whole log; the maintainer's view.
func (c *closure) indices() []int { return *c.log.Load() }

// asOf returns the set as it was after n processed events, sorted.
func (c *closure) asOf(n int) []int {
	log := c.indices()
	end := slices.IndexFunc(log, func(i int) bool { return i >= n })
	if end < 0 {
		end = len(log)
	}
	out := append(make([]int, 0, end), log[:end]...)
	slices.Sort(out)
	return out
}

// NewMaintainer builds a maintainer for the peers over r, replaying any
// events already in r through the incremental algorithm.
func NewMaintainer(r *program.Run, peers ...schema.Peer) *Maintainer {
	return NewMaintainerAt(r, r.Len(), peers...)
}

// NewMaintainerAt builds a maintainer for the peers over r processing only
// the first n events, so a caller exposing a bounded prefix of the run
// (e.g. a coordinator whose tail is not yet durable) gets explanations over
// exactly that prefix. Later events are absorbed by SyncTo/Sync.
func NewMaintainerAt(r *program.Run, n int, peers ...schema.Peer) *Maintainer {
	m := &Maintainer{a: NewAnalysisPartial(r)}
	for _, p := range peers {
		m.peers = append(m.peers, &peerState{p: p})
	}
	m.SyncTo(n)
	return m
}

// Sync processes events appended to the run since the last call.
func (m *Maintainer) Sync() { m.SyncTo(m.a.Run.Len()) }

// SyncTo processes events up to (exclusive) index n, leaving the rest for a
// later call; n past the run length is clamped. It never un-processes.
func (m *Maintainer) SyncTo(n int) {
	n = min(n, m.a.Run.Len())
	for i := m.a.Len(); i < n; i++ {
		m.a.SyncTo(i + 1)
		for _, ps := range m.peers {
			ps.processOne(m.a, i)
		}
	}
}

// Len returns the number of events processed: the analysis's, which every
// peer has processed too.
func (m *Maintainer) Len() int { return m.a.Len() }

// peer returns p's state; p must be one of the maintained peers.
func (m *Maintainer) peer(p schema.Peer) *peerState {
	for _, ps := range m.peers {
		if ps.p == p {
			return ps
		}
	}
	panic(fmt.Sprintf("faithful: peer %s is not maintained", p))
}

// Minimal returns (a copy of) the current minimal p-faithful scenario
// T_p^ω(ρ, α).
func (m *Maintainer) Minimal(p schema.Peer) Seq { return NewSeq(m.peer(p).main...) }

// Explanation returns (a copy of) T_p^ω(ρ, {f}) for event f: the minimal
// boundary- and modification-p-faithful subsequence containing f.
func (m *Maintainer) Explanation(p schema.Peer, f int) Seq {
	return NewSeq(m.peer(p).perEvent[f].indices()...)
}

func (ps *peerState) processOne(a *Analysis, n int) {
	ps.mark = append(ps.mark, false)
	ps.inMain = append(ps.inMain, false)

	// (i) f = e: the closure of the new event is e plus the closures of
	// its direct requirements T_p(ρ.e, {e}) \ {e}.
	sn := []int{n}
	ps.mark[n] = true
	union := func(g int) {
		// A marked g lies in a closure already unioned (or is n itself),
		// which, being closed, holds closure(g) too.
		if ps.mark[g] {
			return
		}
		for _, i := range ps.perEvent[g].indices() {
			if !ps.mark[i] {
				ps.mark[i] = true
				sn = append(sn, i)
			}
		}
	}
	a.boundaryReqs(n, union)
	a.modificationReqs(n, ps.p, union)
	for _, i := range sn {
		ps.mark[i] = false
	}
	ps.perEvent = append(ps.perEvent, newClosure(sn))
	ps.register(a, n, sn)

	// (i) f ≠ e and (ii) α: closures referencing a key of a lifecycle that
	// e just closed must absorb e's closure. A set may be listed more than
	// once; sorting puts the repeats side by side.
	for _, l := range a.closes.row(n) {
		if int(l) >= len(ps.refs) {
			continue
		}
		ids := ps.refs[l]
		slices.Sort(ids)
		for k, setID := range ids {
			switch {
			case k > 0 && ids[k-1] == setID:
			case setID == mainID:
				ps.joinMain(a, sn)
			case int(setID) != n:
				ps.absorb(a, int(setID), sn)
			}
		}
		ps.refs[l] = nil
	}

	// (ii) α: a visible event joins the maintained scenario with its
	// closure.
	if a.Run.VisibleAt(n, ps.p) {
		ps.vis = append(ps.vis, n)
		ps.joinMain(a, sn)
	}
}

// joinMain unions s into the maintained scenario in O(|s|).
func (ps *peerState) joinMain(a *Analysis, s []int) {
	start := len(ps.main)
	for _, i := range s {
		if !ps.inMain[i] {
			ps.inMain[i] = true
			ps.main = append(ps.main, i)
		}
	}
	ps.register(a, mainID, ps.main[start:])
}

// absorb unions s (whose first index is the event being processed) into
// the closure of event f, in O(|closure(f)| + |s|).
func (ps *peerState) absorb(a *Analysis, f int, s []int) {
	c := ps.perEvent[f]
	log := c.indices()
	for _, i := range log {
		ps.mark[i] = true
	}
	start := len(log)
	for _, i := range s {
		if !ps.mark[i] {
			ps.mark[i] = true
			log = append(log, i)
		}
	}
	for _, i := range log {
		ps.mark[i] = false
	}
	if len(log) == start {
		return
	}
	c.log.Store(&log)
	ps.register(a, f, log[start:])
}

// register records, for every event of added, the open lifecycles its keys
// lie in, so the set identified by setID absorbs their eventual right
// boundaries. Events already in the set were registered when they joined
// it, so only the added ones are scanned.
func (ps *peerState) register(a *Analysis, setID int, added []int) {
	for _, g := range added {
		for _, l := range a.keyLCs.row(g) {
			if a.lcs[l].Closed() {
				continue
			}
			if int(l) >= len(ps.refs) {
				ps.refs = append(ps.refs, make([][]int32, int(l)+1-len(ps.refs))...)
			}
			ids := ps.refs[l]
			if k := len(ids); k == 0 || ids[k-1] != int32(setID) {
				ps.refs[l] = append(ids, int32(setID))
			}
		}
	}
}

// Frozen is an immutable capture of one peer's share of a Maintainer at a
// point in time: the per-event explanations, minimal scenario and visible
// events over exactly the events processed when Freeze was called. It is
// safe for concurrent use by any number of readers while the Maintainer
// keeps advancing: the maintainer only appends to the logs a capture
// reads, past the prefix the capture covers.
type Frozen struct {
	perEvent []*closure
	main     []int
	vis      []int
	n        int
}

// Freeze captures p's current state in O(1): length-capped headers of the
// closure table, the main log and the visible-index log.
func (m *Maintainer) Freeze(p schema.Peer) *Frozen {
	ps := m.peer(p)
	return &Frozen{
		perEvent: ps.perEvent[:len(ps.perEvent):len(ps.perEvent)],
		main:     ps.main[:len(ps.main):len(ps.main)],
		vis:      ps.vis[:len(ps.vis):len(ps.vis)],
		n:        m.a.Len(),
	}
}

// Explanation returns the event indices of T_p^ω(ρ, {f}) for event f, as
// of the freeze point, ascending.
func (f *Frozen) Explanation(i int) []int { return f.perEvent[i].asOf(f.n) }

// Minimal returns the event indices of the minimal p-faithful scenario as
// of the freeze point, ascending.
func (f *Frozen) Minimal() []int {
	out := append(make([]int, 0, len(f.main)), f.main...)
	slices.Sort(out)
	return out
}

// Visible returns the events visible at p over the captured prefix,
// ascending. The slice is shared: callers must not modify it.
func (f *Frozen) Visible() []int { return f.vis }

// Len returns the number of events the capture covers.
func (f *Frozen) Len() int { return f.n }
