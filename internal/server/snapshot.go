package server

import (
	"bufio"
	"context"
	"sort"
	"time"

	"collabwf/internal/cond"
	"collabwf/internal/core"
	"collabwf/internal/jsonw"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/trace"
)

// snapshot is an immutable capture of the released run prefix, published
// through Coordinator.snap (an atomic.Pointer) by releaseLocked after every
// group-commit release. The read paths — View, Explain, Scenario,
// Transitions, Trace, Len, Wait — serve from the latest snapshot without
// touching the coordinator mutex.
//
// Why sharing is safe (the memory-model argument, expanded in DESIGN.md):
//
//   - steps is a length-capped slice header over the live run's Steps
//     backing array, and no field of a step a published snapshot can see
//     is ever written. Append writes only indices ≥ len(steps), and
//     rollbackTo always targets n ≥ observable, so Truncate zeroes only
//     indices ≥ len(steps). Run.Release, called here just before the
//     prefix is published, drops the versions of the newly released steps
//     that keep none — all but every 32nd — so it too writes only steps
//     no earlier snapshot holds. Readers and the writer touch disjoint
//     memory.
//   - The instances a snapshot reaches — last, and the versions its steps
//     keep — are persistent: each relation is a tree whose rows and links
//     no write changes, as a write copies the path it changes. The only
//     in-place writes are a transient's, to nodes tagged with its own
//     live edit token, and no shared version holds such a node: recovery
//     retires its transient's token each time it freezes a version and
//     when the transient settles into the run's current instance, before
//     the first publication.
//   - Every other instance of the prefix is rebuilt by the reader that
//     needs it: /transitions rolls one private cursor (program.Cursor)
//     forward from the nearest kept version, redoing the steps' recorded
//     effects into its own transient, and renders each view before it
//     moves on. /view reads last.
//   - The one field of a shared node that changes is its memo of rendered
//     view lines: readers rendering the same row publish an immutable line
//     with a CAS on the memo head (schema's pnode.line), so concurrent
//     renders of the same or adjacent steps need no lock. Nothing is kept
//     per (step, peer): a read renders the view from the rows' memoized
//     lines, straight into the response.
//   - exp holds O(1) per-peer freezes of the coordinator's explainer:
//     length-capped headers of append-only tables (requirement graph,
//     minimal scenario, visible events) the maintainer extends only past
//     a freeze's prefix, and right boundaries, each stored once
//     atomically and followed only below that prefix (see faithful.Frozen).
//   - atomic.Pointer.Store/Load give release/acquire ordering: everything
//     written before the Store (the prefix, the caches, the freezes) is
//     visible to any reader that Loads the new pointer. The predecessor's
//     next channel is closed after the Store, so a waiter it wakes Loads
//     this snapshot or a later one.
type snapshot struct {
	name    string
	prog    *program.Program
	initial *schema.Instance
	// steps is the released prefix; len(steps) == observable at publication.
	steps []program.Step
	// last is the prefix's last instance (initial when it is empty).
	last *schema.Instance
	// exp[p] answers p's explanation queries over exactly this prefix, and
	// lists p's visible event indices over it.
	exp map[schema.Peer]*core.FrozenExplainer
	// seq increments with every publication; born stamps it (UnixNano),
	// feeding the wf_snapshot_age_seconds gauge.
	seq  uint64
	born int64
	// next is closed by the following publication: the one change signal
	// every Wait blocks on. It carries nothing, so there is nothing to
	// buffer or drop.
	next chan struct{}
	// cnt is the owning coordinator's condition-eval counter block (nil when
	// unprofiled): view renders on the snapshot attribute their selection
	// evaluations to that run. A render counts only the rows whose line for
	// the view was not memoized yet.
	cnt *cond.EvalCounts
}

// snapshot implements core.RunReader over the captured prefix.

func (s *snapshot) Len() int                       { return len(s.steps) }
func (s *snapshot) Schema() *schema.Collaborative  { return s.prog.Schema }
func (s *snapshot) Event(i int) *program.Event     { return s.steps[i].Event }
func (s *snapshot) Effects(i int) []program.Effect { return s.steps[i].Effects }

// VisibleAt answers from p's frozen visible-index log: the explainer
// checked each released event's visibility once, when it stepped over it.
func (s *snapshot) VisibleAt(i int, p schema.Peer) bool {
	idxs := s.visibleFrom(p, i)
	return len(idxs) > 0 && idxs[0] == i
}

// events decodes the captured prefix's event sequence.
func (s *snapshot) events() []*program.Event {
	out := make([]*program.Event, len(s.steps))
	for i := range s.steps {
		out[i] = s.steps[i].Event
	}
	return out
}

// publishSnapshotLocked captures the released prefix and swaps it in for
// lock-free readers. Callers hold the lock (or are constructing the
// coordinator). Publication first advances the explainer from the last
// published length to the released prefix — this is where the incremental
// work happens, O(new events) per release, so no read ever pays it; each
// (event, peer) visibility check happens there, once.
func (c *Coordinator) publishSnapshotLocked() {
	c.explainer.SyncTo(c.observable)
	c.run.Release(c.observable)
	peers := c.prog.Peers()
	exp := make(map[schema.Peer]*core.FrozenExplainer, len(peers))
	for _, p := range peers {
		exp[p] = c.explainer.Freeze(p)
	}
	c.snapSeq++
	prev := c.snap.Load()
	s := &snapshot{
		name:    c.name,
		prog:    c.prog,
		initial: c.run.Initial,
		steps:   c.run.Steps[:c.observable:c.observable],
		last:    c.run.InstanceAt(c.observable - 1),
		exp:     exp,
		seq:     c.snapSeq,
		born:    time.Now().UnixNano(),
		next:    make(chan struct{}),
		cnt:     c.run.Profiler().Profiler().Cond(),
	}
	c.snap.Store(s)
	if prev != nil {
		close(prev.next)
	}
	c.metrics.snapshotSwapped()
}

// Wait blocks until the released prefix is longer than from and returns
// its length n > from; a caller then reads the new transitions with
// Transitions(peer, from), and Len() ≥ n holds on that read. It returns at
// once when the prefix is already longer, ctx.Err() when ctx ends first, and
// the shut-down error once Close or Crash has stopped the coordinator and
// nothing past from was released. Lock-free: a waiter blocks on the
// published snapshot's next channel, closed by the next publication, so
// listeners need no registration and a slow one misses nothing — it reads
// whatever was released since its cursor.
func (c *Coordinator) Wait(ctx context.Context, from int) (int, error) {
	for {
		s := c.snap.Load()
		if n := s.Len(); n > from {
			return n, nil
		}
		select {
		case <-s.next:
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-c.done:
			// Close publishes its last release before closing done.
			if n := c.snap.Load().Len(); n > from {
				return n, nil
			}
			return 0, errShutDown
		}
	}
}

// SnapshotInfo reports the published snapshot's sequence number, age, and
// event count, for /statusz and the snapshot-age gauge.
func (c *Coordinator) SnapshotInfo() (seq uint64, age time.Duration, events int) {
	s := c.snap.Load()
	return s.seq, time.Duration(time.Now().UnixNano() - s.born), len(s.steps)
}

// readSnapshot loads the published snapshot for a read by peer, counting
// the read; an unknown peer is an error.
func (c *Coordinator) readSnapshot(peer schema.Peer) (*snapshot, error) {
	s := c.snap.Load()
	if !s.prog.Schema.HasPeer(peer) {
		return nil, unknownPeerErr(peer)
	}
	c.metrics.read()
	return s, nil
}

// viewOf returns the peer's view of in, an instance of the snapshot's
// prefix: a filter over the instance that renders through its rows'
// memoized lines, so nothing is kept per step.
func (s *snapshot) viewOf(in *schema.Instance, peer schema.Peer) *schema.ViewInstance {
	return schema.ViewOf(in, s.prog.Schema, peer).CountConds(s.cnt)
}

// cursor returns a private cursor over the prefix's instances: a read of
// several of them rolls one transient forward from the kept versions.
func (s *snapshot) cursor() *program.Cursor {
	return program.NewCursor(s.initial, s.steps, s.last)
}

// notification builds the peer's notification for event idx from the
// snapshot alone, leaving View empty for the caller to render or stream.
// ex is the event's (ascending) explanation, ExplainEvent(idx); the event
// itself is left out of Because.
func (s *snapshot) notification(peer schema.Peer, idx int, ex []int) Notification {
	e := s.Event(idx)
	n := Notification{Index: idx, Omega: e.Peer() != peer}
	if !n.Omega {
		n.Rule = e.Rule.Name
	}
	for _, j := range ex {
		if j != idx {
			n.Because = append(n.Because, j)
		}
	}
	return n
}

// visibleFrom returns the peer's visible event indices ≥ from.
func (s *snapshot) visibleFrom(peer schema.Peer, from int) []int {
	idxs := s.exp[peer].Visible()
	return idxs[sort.SearchInts(idxs, from):]
}

// Transitions returns the peer's visible transitions with indices ≥ from
// and the released length, both from one snapshot, so a poller gets a
// mutually consistent pair and resumes from that length. Lock-free: the
// snapshot's visible-index log and a binary search make a poll O(answer).
// /transitions streams the same answer (writeTransitionsJSON).
func (c *Coordinator) Transitions(peer schema.Peer, from int) ([]Notification, int, error) {
	s, err := c.readSnapshot(peer)
	if err != nil {
		return nil, 0, err
	}
	var out []Notification
	ex := s.exp[peer].Walker()
	cur := s.cursor()
	for _, idx := range s.visibleFrom(peer, from) {
		n := s.notification(peer, idx, ex.Explain(idx))
		n.View = s.viewOf(cur.At(idx), peer).String()
		out = append(out, n)
	}
	return out, s.Len(), nil
}

// writeTransitionsJSON streams Transitions' answer as encoding/json
// encodes map[string]any{"transitions": ts, "len": n}: keys sorted, null
// for no transitions, a trailing newline. Each view is written straight
// from its rows' memoized lines, and every explanation is walked with one
// reused scratch.
func (s *snapshot) writeTransitionsJSON(w *bufio.Writer, peer schema.Peer, from int) {
	w.WriteString(`{"len":`)
	jsonw.WriteInt(w, s.Len())
	w.WriteString(`,"transitions":`)
	idxs := s.visibleFrom(peer, from)
	if len(idxs) == 0 {
		w.WriteString("null}\n")
		return
	}
	sep := byte('[')
	ex := s.exp[peer].Walker()
	cur := s.cursor()
	for _, idx := range idxs {
		w.WriteByte(sep)
		sep = ','
		n := s.notification(peer, idx, ex.Explain(idx))
		n.writeJSON(w, s.viewOf(cur.At(idx), peer))
	}
	w.WriteString("]}\n")
}

// writeViewJSON streams View's answer as encoding/json encodes
// map[string]string{"view": v}.
func (s *snapshot) writeViewJSON(w *bufio.Writer, peer schema.Peer) {
	w.WriteString(`{"view":`)
	s.viewOf(s.last, peer).WriteJSON(w)
	w.WriteString("}\n")
}

// writeJSON writes n as encoding/json encodes a Notification, with the
// view streamed from vi in place of n.View.
func (n *Notification) writeJSON(w *bufio.Writer, vi *schema.ViewInstance) {
	w.WriteString(`{"index":`)
	jsonw.WriteInt(w, n.Index)
	if n.Omega {
		w.WriteString(`,"omega":true`)
	} else {
		w.WriteString(`,"omega":false`)
	}
	if n.Rule != "" {
		w.WriteString(`,"rule":`)
		jsonw.WriteString(w, n.Rule)
	}
	w.WriteString(`,"view":`)
	vi.WriteJSON(w)
	if len(n.Because) > 0 {
		w.WriteString(`,"because":[`)
		for i, j := range n.Because {
			if i > 0 {
				w.WriteByte(',')
			}
			jsonw.WriteInt(w, j)
		}
		w.WriteByte(']')
	}
	w.WriteByte('}')
}

// snapTrace exports the snapshot's prefix as a replayable trace.
func (s *snapshot) trace() *trace.Trace {
	return trace.FromEvents(s.name, s.initial, s.events())
}
