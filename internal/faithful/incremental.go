package faithful

import (
	"sync/atomic"

	"collabwf/internal/program"
	"collabwf/internal/schema"
)

// mainID is the pseudo set id of the maintained minimal faithful scenario
// in the lifecycle reference index.
const mainID = -1

// Maintainer incrementally maintains the minimal p-faithful scenario of a
// growing run, as outlined at the end of Section 4 of the paper. Besides
// T_p^ω(ρ, α) for the visible events α, it maintains T_p^ω(ρ, {f}) for
// every event f — a minimal boundary- and modification-faithful explanation
// of the individual event. Each new event costs a single application of the
// T_p operator plus set unions, instead of a fixpoint recomputation over
// the whole run.
//
// Every maintained set is an append-only log of event indices, so a union
// costs O(|Δ|), the events it adds, and never copies the set it grows (see
// closure for why that also makes Freeze O(1)).
type Maintainer struct {
	p schema.Peer
	a *Analysis

	// perEvent[f] holds T_p^ω(ρ, {f}). Cells are never replaced, only
	// extended.
	perEvent []*closure
	// main is T_p^ω(ρ, α) in the order its events joined; inMain is its
	// membership, indexed by event.
	main   []int
	inMain []bool
	// refs[lc] is the set of set-ids (event indices, or mainID) whose
	// closure references a key of the currently open lifecycle lc; when
	// an event closes the lifecycle, those closures must absorb it.
	refs map[lcID]map[int]bool
	// mark is scratch membership for building and deduplicating unions;
	// it is all false between calls.
	mark []bool

	processed int
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

// asOf returns the set as it was after n processed events.
func (c *closure) asOf(n int) Seq {
	log := c.indices()
	s := make(Seq, len(log))
	for _, i := range log {
		if i >= n {
			break
		}
		s[i] = struct{}{}
	}
	return s
}

// NewMaintainer builds a maintainer for p over r, replaying any events
// already in r through the incremental algorithm.
func NewMaintainer(r *program.Run, p schema.Peer) *Maintainer {
	return NewMaintainerAt(r, p, r.Len())
}

// NewMaintainerAt builds a maintainer for p over r processing only the
// first n events, so a caller exposing a bounded prefix of the run (e.g. a
// coordinator whose tail is not yet durable) gets explanations over exactly
// that prefix. Later events are absorbed by SyncTo/Sync.
func NewMaintainerAt(r *program.Run, p schema.Peer, n int) *Maintainer {
	m := &Maintainer{
		p:    p,
		a:    NewAnalysisPartial(r),
		refs: make(map[lcID]map[int]bool),
	}
	m.SyncTo(n)
	return m
}

// Sync processes events appended to the run since the last call.
func (m *Maintainer) Sync() { m.SyncTo(m.a.Run.Len()) }

// SyncTo processes events up to (exclusive) index n, leaving the rest for a
// later call; n past the run length is clamped. It never un-processes.
func (m *Maintainer) SyncTo(n int) {
	if n > m.a.Run.Len() {
		n = m.a.Run.Len()
	}
	for i := m.processed; i < n; i++ {
		m.a.SyncTo(i + 1)
		m.processOne(i)
		m.processed++
	}
}

// Minimal returns (a copy of) the current minimal p-faithful scenario
// T_p^ω(ρ, α).
func (m *Maintainer) Minimal() Seq { return NewSeq(m.main...) }

// Explanation returns (a copy of) T_p^ω(ρ, {f}) for event f: the minimal
// boundary- and modification-p-faithful subsequence containing f.
func (m *Maintainer) Explanation(f int) Seq { return NewSeq(m.perEvent[f].indices()...) }

// Len returns the number of events processed.
func (m *Maintainer) Len() int { return m.processed }

func (m *Maintainer) processOne(n int) {
	m.mark = append(m.mark, false)
	m.inMain = append(m.inMain, false)

	// (i) f = e: the closure of the new event is e plus the closures of
	// its direct requirements T_p(ρ.e, {e}) \ {e}.
	sn := []int{n}
	m.mark[n] = true
	for g := range Step(m.a, NewSeq(n), m.p) {
		if g == n {
			continue
		}
		for _, i := range m.perEvent[g].indices() {
			if !m.mark[i] {
				m.mark[i] = true
				sn = append(sn, i)
			}
		}
	}
	for _, i := range sn {
		m.mark[i] = false
	}
	m.perEvent = append(m.perEvent, newClosure(sn))
	m.register(n, sn)

	// (i) f ≠ e and (ii) α: closures referencing a key of a lifecycle that
	// e just closed must absorb e's closure.
	for _, ef := range m.a.Run.Effects(n) {
		if ef.Kind != program.Deleted {
			continue
		}
		id := lcID{ef.Rel, ef.Key}
		for setID := range m.refs[id] {
			if setID == mainID {
				m.joinMain(sn)
			} else if setID != n {
				m.absorb(setID, sn)
			}
		}
		delete(m.refs, id)
	}

	// (ii) α: a visible event joins the maintained scenario with its
	// closure.
	if m.a.Run.VisibleAt(n, m.p) {
		m.joinMain(sn)
	}
}

// joinMain unions s into the maintained scenario in O(|s|).
func (m *Maintainer) joinMain(s []int) {
	start := len(m.main)
	for _, i := range s {
		if !m.inMain[i] {
			m.inMain[i] = true
			m.main = append(m.main, i)
		}
	}
	m.register(mainID, m.main[start:])
}

// absorb unions s (whose first index is the event being processed) into
// the closure of event f, in O(|closure(f)| + |s|).
func (m *Maintainer) absorb(f int, s []int) {
	c := m.perEvent[f]
	log := c.indices()
	for _, i := range log {
		m.mark[i] = true
	}
	start := len(log)
	for _, i := range s {
		if !m.mark[i] {
			m.mark[i] = true
			log = append(log, i)
		}
	}
	for _, i := range log {
		m.mark[i] = false
	}
	if len(log) == start {
		return
	}
	c.log.Store(&log)
	m.register(f, log[start:])
}

// Frozen is an immutable capture of a Maintainer's state at a point in time:
// the per-event explanations and minimal scenario over exactly the events
// processed when Freeze was called. It is safe for concurrent use by any
// number of readers while the Maintainer keeps advancing: the maintainer
// only appends to the logs a capture reads, past the prefix the capture
// covers.
type Frozen struct {
	perEvent []*closure
	main     []int
	n        int
}

// Freeze captures the maintainer's current state in O(1): length-capped
// headers of the closure table and of the main log.
func (m *Maintainer) Freeze() *Frozen {
	return &Frozen{
		perEvent: m.perEvent[:len(m.perEvent):len(m.perEvent)],
		main:     m.main[:len(m.main):len(m.main)],
		n:        m.processed,
	}
}

// Explanation returns (a copy of) T_p^ω(ρ, {f}) for event f, as of the
// freeze point.
func (f *Frozen) Explanation(i int) Seq { return f.perEvent[i].asOf(f.n) }

// Minimal returns (a copy of) the minimal p-faithful scenario as of the
// freeze point.
func (f *Frozen) Minimal() Seq { return NewSeq(f.main...) }

// Len returns the number of events the capture covers.
func (f *Frozen) Len() int { return f.n }

// register records, for every event of added, the open lifecycles whose
// keys it references, so the set identified by setID absorbs their
// eventual right boundaries. Events already in the set were registered
// when they joined it, so only the added ones are scanned.
func (m *Maintainer) register(setID int, added []int) {
	for _, g := range added {
		e := m.a.Run.Event(g)
		for _, rel := range e.KeyRelations() {
			for _, k := range e.KeysOf(rel) {
				lc, ok := m.a.LifecycleAt(rel, k, g)
				if !ok || lc.Closed() {
					continue
				}
				id := lcID{rel, k}
				if m.refs[id] == nil {
					m.refs[id] = make(map[int]bool)
				}
				m.refs[id][setID] = true
			}
		}
	}
}
