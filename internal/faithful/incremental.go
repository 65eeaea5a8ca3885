package faithful

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"collabwf/internal/program"
	"collabwf/internal/schema"
)

// Maintainer incrementally maintains, for each of a set of peers, the
// minimal p-faithful scenario of a growing run, as outlined at the end of
// Section 4 of the paper, and the requirement graph whose reachability
// from an event f is T_p^ω(ρ, {f}) — a minimal boundary- and
// modification-faithful explanation of the individual event.
//
// An event's requirements (Definitions 4.3–4.4) are the boundaries of its
// keys' lifecycles and the earlier fills of them relevant to the peer. The
// boundaries are the same for every peer: the walk reads them from the
// analysis's per-event key rows and one left and one right boundary per
// lifecycle, the right one stored when the lifecycle closes. So the graph
// is those plus a fixed row of modification edges per event and peer. An
// explanation is a walk, and a run whose events each depend on all their
// predecessors keeps a linear graph.
//
// The peers share one Analysis: everything but the relevant-attribute test
// is the same for every peer, so each event's lifecycles are computed once.
// The maintainer advances in lockstep: the analysis by one event, then
// every peer's state by the same event, so no peer ever reads the analysis
// ahead of its own step.
type Maintainer struct {
	a *Analysis
	// left[l] is lifecycle l's left boundary, -1 for a tuple of the
	// initial instance.
	left []int32
	// right[l] is lifecycle l's right boundary, -1 while it is open. Each
	// cell is stored once, when l closes, and loaded by captures.
	right []atomic.Int32
	peers []*peerState
}

// peerState is one peer's share of a Maintainer.
type peerState struct {
	p schema.Peer

	// past row f lists the requirements of f that are not boundaries:
	// the earlier fills modificationReqs names.
	past rows
	// main is T_p^ω(ρ, α) in the order its events joined; inMain is its
	// membership, indexed by event.
	main   []int32
	inMain []bool
	// mainLC[l] reports that an event of main holds a key of lifecycle l:
	// the event closing l is its right boundary, so it joins main too.
	mainLC []bool
	// vis lists, ascending, the events visible at p.
	vis []int32
}

// NewMaintainer builds a maintainer for the peers over r, replaying any
// events already in r through the incremental algorithm.
func NewMaintainer(r *program.Run, peers ...schema.Peer) *Maintainer {
	return NewMaintainerAt(r, r.Len(), peers...)
}

// NewMaintainerAt builds a maintainer for the peers over r processing only
// the first n events, so a caller exposing a bounded prefix of the run
// (e.g. a coordinator whose tail is not yet durable) gets explanations over
// exactly that prefix. Later events are processed by SyncTo/Sync.
func NewMaintainerAt(r *program.Run, n int, peers ...schema.Peer) *Maintainer {
	n = min(n, r.Len())
	a := newAnalysis(r, n)
	m := &Maintainer{a: a, left: make([]int32, 0, cap(a.lcs)), right: make([]atomic.Int32, 0, cap(a.lcs))}
	for _, p := range peers {
		m.peers = append(m.peers, &peerState{
			p:      p,
			past:   rows{off: append(make([]int32, 0, n+1), 0)},
			main:   make([]int32, 0, n),
			inMain: make([]bool, 0, n),
			mainLC: make([]bool, 0, cap(a.lcs)),
			vis:    make([]int32, 0, n),
		})
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
		for l := len(m.left); l < len(m.a.lcs); l++ {
			m.left = append(m.left, m.a.lcs[l].left)
			m.right = append(m.right, atomic.Int32{})
			m.right[l].Store(-1)
		}
		for _, l := range m.a.closes.row(i) {
			m.right[l].Store(int32(i))
		}
		for _, ps := range m.peers {
			ps.processOne(m, i)
		}
	}
}

// Len returns the number of events processed: the analysis's, which every
// peer has processed too.
func (m *Maintainer) Len() int { return m.a.Len() }

// Stored reports the size of the requirement graph: the modification
// edges in every maintained peer's past rows, the key edges every peer
// shares (an event's entries in the analysis's key rows, each leading to a
// lifecycle's boundaries), and the right boundaries recorded, one per
// closed lifecycle.
func (m *Maintainer) Stored() (pastEdges, keyEdges, rightBoundaries int) {
	for _, ps := range m.peers {
		pastEdges += len(ps.past.ids)
	}
	keyEdges = len(m.a.keyLCs.ids)
	for i := range m.right {
		if m.right[i].Load() >= 0 {
			rightBoundaries++
		}
	}
	return pastEdges, keyEdges, rightBoundaries
}

// LifecycleTable reports the lifecycle table the peers share: its entries,
// one per lifecycle, and the bytes they take.
func (m *Maintainer) LifecycleTable() (entries, bytes int) {
	return len(m.a.lcs), len(m.a.lcs) * int(unsafe.Sizeof(lifecycle{}))
}

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
func (m *Maintainer) Minimal(p schema.Peer) Seq {
	main := m.peer(p).main
	s := make(Seq, len(main))
	for _, i := range main {
		s[int(i)] = struct{}{}
	}
	return s
}

// Explanation returns (a copy of) T_p^ω(ρ, {f}) for event f: the minimal
// boundary- and modification-p-faithful subsequence containing f.
func (m *Maintainer) Explanation(p schema.Peer, f int) Seq {
	return NewSeq(m.Freeze(p).Explanation(f)...)
}

func (ps *peerState) processOne(m *Maintainer, n int) {
	a := m.a
	a.modificationReqs(n, ps.p, func(j int) { ps.past.ids = append(ps.past.ids, int32(j)) })
	ps.past.endRow()

	ps.inMain = append(ps.inMain, false)
	ps.mainLC = append(ps.mainLC, make([]bool, len(m.right)-len(ps.mainLC))...)
	// (ii) α: a visible event joins the maintained scenario with its
	// explanation, and so does the right boundary of a lifecycle holding a
	// key of an event already in it. Every other requirement of main's
	// events lies in main already, so the walk stops at its members.
	join := a.Run.VisibleAt(n, ps.p)
	if join {
		ps.vis = append(ps.vis, int32(n))
	}
	for _, l := range a.closes.row(n) {
		join = join || ps.mainLC[l]
	}
	if join {
		start := len(ps.main)
		fz := m.freeze(ps)
		ps.main = reach(&fz, ps.main, n, ps.inMain)
		for _, f := range ps.main[start:] {
			for _, l := range a.keyLCs.row(int(f)) {
				ps.mainLC[l] = true
			}
		}
	}
}

// Frozen is an immutable capture of one peer's share of a Maintainer at a
// point in time: the requirement graph, minimal scenario and visible
// events over exactly the first n events. Its tables are length-capped
// headers of the append-only ones the maintainer extends, so it reads
// nothing the maintainer writes but right's cells, which it follows only
// below n. It is safe for concurrent use by any number of readers while
// the Maintainer keeps advancing.
type Frozen struct {
	// past is the peer's past edges and keys the analysis's keyLCs, each
	// with exactly n rows.
	past, keys rows
	left       []int32
	right      []atomic.Int32
	main, vis  []int32
	n          int
}

// Freeze captures p's current state in O(1).
func (m *Maintainer) Freeze(p schema.Peer) *Frozen {
	fz := m.freeze(m.peer(p))
	return &fz
}

// freeze captures ps's state; the maintainer walks such a capture too.
func (m *Maintainer) freeze(ps *peerState) Frozen {
	n := m.a.Len()
	return Frozen{
		past:  ps.past.prefix(n),
		keys:  m.a.keyLCs.prefix(n),
		left:  m.left[:len(m.left):len(m.left)],
		right: m.right[:len(m.right):len(m.right)],
		main:  ps.main[:len(ps.main):len(ps.main)],
		vis:   ps.vis[:len(ps.vis):len(ps.vis)],
		n:     n,
	}
}

// reach appends to dst, in the order reached, i and every event of f
// reachable from it that seen does not mark, and marks them: the walk
// stops at marked events, and dst past its original length is its queue.
// An event's edges are its past row and the boundaries of its keys'
// lifecycles.
func reach[T int | int32](f *Frozen, dst []T, i int, seen []bool) []T {
	if seen[i] {
		return dst
	}
	seen[i] = true
	dst = append(dst, T(i))
	for k := len(dst) - 1; k < len(dst); k++ {
		e := int(dst[k])
		for _, j := range f.past.row(e) {
			if !seen[j] {
				seen[j] = true
				dst = append(dst, T(j))
			}
		}
		for _, l := range f.keys.row(e) {
			if j := f.left[l]; j >= 0 && !seen[j] {
				seen[j] = true
				dst = append(dst, T(j))
			}
			if r := f.right[l].Load(); r >= 0 && int(r) < f.n && !seen[r] {
				seen[r] = true
				dst = append(dst, T(r))
			}
		}
	}
	return dst
}

// Explanation returns the event indices of T_p^ω(ρ, {i}) for event i, as
// of the freeze point, ascending. A pooled walker makes it cost the
// explanation's size, not the run's length; one that panics is dropped.
func (f *Frozen) Explanation(i int) []int {
	w := walkers.Get().(*Walker)
	if len(w.seen) < f.n {
		w.seen = make([]bool, 2*f.n)
	}
	w.fz = f
	out := slices.Clone(w.Explain(i))
	walkers.Put(w)
	return out
}

// walkers recycles the walkers of single explanations across captures; a
// pooled walker's seen may be longer than its next capture's length.
var walkers = sync.Pool{New: func() any { return new(Walker) }}

// Walker returns a walker of the capture's explanations.
func (f *Frozen) Walker() *Walker { return &Walker{fz: f, seen: make([]bool, f.n)} }

// Walker computes explanations over one capture, reusing its scratch from
// one walk to the next. It is not safe for concurrent use.
type Walker struct {
	fz *Frozen
	// seen is all false between walks.
	seen []bool
	out  []int
}

// Explain returns the event indices of T_p^ω(ρ, {i}) as of the freeze
// point, ascending, in a slice the next call reuses.
func (w *Walker) Explain(i int) []int {
	w.out = reach(w.fz, w.out[:0], i, w.seen)
	for _, j := range w.out {
		w.seen[j] = false
	}
	slices.Sort(w.out)
	return w.out
}

// Minimal returns the event indices of the minimal p-faithful scenario as
// of the freeze point, ascending.
func (f *Frozen) Minimal() []int {
	out := make([]int, len(f.main))
	for k, i := range f.main {
		out[k] = int(i)
	}
	slices.Sort(out)
	return out
}

// Visible returns the events visible at p over the captured prefix,
// ascending. The slice is shared: callers must not modify it.
func (f *Frozen) Visible() []int32 { return f.vis }

// Len returns the number of events the capture covers.
func (f *Frozen) Len() int { return f.n }
