// Package faithful implements faithful scenarios (Section 4 of the paper):
// R-lifecycles of keys, boundary and modification faithfulness, the
// T_p(ρ, ·) operator and its fixpoint, the unique minimal p-faithful
// scenario (Theorem 4.7), the semiring of p-faithful scenarios
// (Theorem 4.8), and incremental maintenance of minimal faithful scenarios.
package faithful

import (
	"fmt"
	"sort"
	"sync"

	"collabwf/internal/data"
	"collabwf/internal/program"
	"collabwf/internal/schema"
)

// Lifecycle is an R-lifecycle of a key k in a run (Section 4): the interval
// between the event creating a tuple with key k and the event deleting it.
type Lifecycle struct {
	Rel string
	Key data.Value
	// Left is the index of the creating event; -1 when the tuple existed
	// in the initial instance.
	Left int
	// Right is the index of the deleting event; -1 when the lifecycle is
	// open.
	Right int
}

// Contains reports whether event index i belongs to the lifecycle.
func (lc Lifecycle) Contains(i int) bool {
	if i < lc.Left {
		return false
	}
	return lc.Right < 0 || i <= lc.Right
}

// Closed reports whether the lifecycle has a right boundary.
func (lc Lifecycle) Closed() bool { return lc.Right >= 0 }

// String renders the lifecycle.
func (lc Lifecycle) String() string {
	if lc.Closed() {
		return fmt.Sprintf("%s[%s]:[%d,%d]", lc.Rel, lc.Key, lc.Left, lc.Right)
	}
	return fmt.Sprintf("%s[%s]:[%d,∞)", lc.Rel, lc.Key, lc.Left)
}

// lcID names a key of a relation, by the relation's handle.
type lcID struct {
	rel schema.RelID
	key data.Value
}

// lifecycle is an interned R-lifecycle, in 40 bytes, with the
// per-lifecycle facts the faithfulness conditions read.
type lifecycle struct {
	key data.Value
	rel schema.RelID
	// left is the creating event, -1 when the tuple existed in the
	// initial instance; right is the deleting event, -1 while open.
	left, right int32
	// prev is the id of the key's previous lifecycle, -1 for none.
	prev int32
	// fills is the index in Analysis.fills of the newest attribute fill
	// (⊥ → value) on the tuple during the lifecycle, -1 for none; each
	// fill links to the one before it. They are the raw material of
	// modification faithfulness.
	fills int32
}

// contains reports whether event index i belongs to the lifecycle.
func (lc *lifecycle) contains(i int) bool {
	return i >= int(lc.left) && (lc.right < 0 || i <= int(lc.right))
}

// fill records that an event filled attributes of a tuple.
type fill struct {
	event int32
	// prev is the index of the lifecycle's previous fill, -1 for none.
	prev int32
	// pos is the mask of the filled attribute positions (the effect's
	// Filled).
	pos uint64
}

// rows is a ragged per-event table of ids (lifecycles or events): row i
// is ids[off[i]:off[i+1]], and off starts at 0.
type rows struct {
	off []int32
	ids []int32
}

func (t *rows) row(i int) []int32 { return t.ids[t.off[i]:t.off[i+1]] }

// prefix returns the table of the first n rows, its slices capped so that
// appending to t never writes what it reads.
func (t *rows) prefix(n int) rows {
	end := t.off[n]
	return rows{off: t.off[: n+1 : n+1], ids: t.ids[:end:end]}
}

// endRow closes the next event's row, holding the ids added since the
// previous call.
func (t *rows) endRow() { t.off = append(t.off, int32(len(t.ids))) }

// Analysis caches the per-run facts the faithfulness conditions consume,
// all of them independent of the peer: the run's lifecycles, interned in
// one table, and per event the lifecycles its keys lie in and the
// lifecycles it closes; plus the relevant-attribute sets att(R, q). It is
// extended one event at a time as the underlying run grows (SyncTo), and
// the facts recorded for event i never change afterwards, except that a
// lifecycle open at i may later get its right boundary.
type Analysis struct {
	Run *program.Run

	processed int
	// lcs interns every lifecycle of the run; an id is an index into it.
	lcs []lifecycle
	// fills holds every lifecycle's fills, linked per lifecycle.
	fills []fill
	// latest maps a key to the id of its newest lifecycle.
	latest map[lcID]int32
	// keyLCs row i lists, for the keys of K(R, e_i) in Keys order, the
	// lifecycle containing i (keys in none are skipped).
	keyLCs rows
	// closes row i lists the lifecycles event i closed.
	closes rows
	// keyBuf holds the keys of the event step is recording.
	keyBuf []program.RelKey

	// relevant[rel][q] has bit pos set when attribute pos of the relation
	// with handle rel is in att(R, q) = att(R@q) ∪ att(σ(R@q)).
	relevant []map[schema.Peer]uint64

	// reqMemo caches, per peer, each event's direct faithfulness
	// requirements (they depend only on the event and the run, so the
	// fixpoint is reachability over them). Invalidated by Sync.
	reqMemo map[schema.Peer][][]int
}

// relevantCache shares the att(R, q) tables across analyses: they depend
// only on the schema, and the transparency deciders build one analysis per
// candidate run — recomputing the tables dominated their setup cost. Keyed
// by schema identity; entries live as long as the schema, which the
// long-lived callers (coordinator, deciders) hold anyway.
var relevantCache sync.Map // *schema.Collaborative → []map[schema.Peer]uint64

// relevantSets returns the shared, read-only att(R, q) tables for s.
func relevantSets(s *schema.Collaborative) []map[schema.Peer]uint64 {
	if v, ok := relevantCache.Load(s); ok {
		return v.([]map[schema.Peer]uint64)
	}
	relevant := make([]map[schema.Peer]uint64, s.DB.Size())
	for i, name := range s.DB.Names() {
		rel := s.DB.Relation(name)
		relevant[i] = make(map[schema.Peer]uint64)
		for _, p := range s.Peers() {
			v, ok := s.View(p, name)
			if !ok {
				continue
			}
			var set uint64
			for _, attr := range v.RelevantAttrs() {
				if pos, ok := rel.Index(attr); ok {
					set |= 1 << pos
				}
			}
			relevant[i][p] = set
		}
	}
	actual, _ := relevantCache.LoadOrStore(s, relevant)
	return actual.([]map[schema.Peer]uint64)
}

// NewAnalysis builds the analysis of r, processing all events so far.
func NewAnalysis(r *program.Run) *Analysis {
	a := NewAnalysisPartial(r)
	a.Sync()
	return a
}

// NewAnalysisPartial builds an analysis that has processed no events yet;
// the caller advances it with SyncTo. The incremental maintainer uses this
// to observe the run's lifecycle state as of each historical step.
func NewAnalysisPartial(r *program.Run) *Analysis { return newAnalysis(r, 0) }

// newAnalysis is NewAnalysisPartial with its tables sized for the first n
// events of r: the lifecycles are those of the initial instance plus one
// per Created effect, a key row holds at most the event's keys, a closes
// row one id per Deleted effect, and a fill is a Modified effect that
// filled something.
func newAnalysis(r *program.Run, n int) *Analysis {
	s := r.Prog.Schema
	lcs, fills, keys, closes := 0, 0, 0, 0
	for _, name := range s.DB.Names() {
		lcs += r.Initial.Count(name)
	}
	for i := range n {
		for _, ef := range r.Effects(i) {
			switch {
			case ef.Kind == program.Created:
				lcs++
			case ef.Kind == program.Deleted:
				closes++
			case ef.Filled != 0:
				fills++
			}
		}
		keys += len(r.Event(i).Rule.Layout().Keys)
	}
	a := &Analysis{
		Run:      r,
		lcs:      make([]lifecycle, 0, lcs),
		fills:    make([]fill, 0, fills),
		latest:   make(map[lcID]int32, lcs),
		keyLCs:   rows{off: append(make([]int32, 0, n+1), 0), ids: make([]int32, 0, keys)},
		closes:   rows{off: append(make([]int32, 0, n+1), 0), ids: make([]int32, 0, closes)},
		relevant: relevantSets(s),
		reqMemo:  make(map[schema.Peer][][]int),
	}
	// Tuples of the initial instance live in lifecycles opened "before"
	// the run (Left = -1).
	for i, name := range s.DB.Names() {
		for _, k := range r.Initial.Keys(name) {
			a.intern(lcID{schema.RelID(i), k}, -1)
		}
	}
	return a
}

// intern adds the lifecycle of id opened by event left as the key's
// newest lifecycle.
func (a *Analysis) intern(id lcID, left int) {
	prev, ok := a.latest[id]
	if !ok {
		prev = -1
	}
	a.latest[id] = int32(len(a.lcs))
	a.lcs = append(a.lcs, lifecycle{key: id.key, rel: id.rel, left: int32(left), right: -1, prev: prev, fills: -1})
}

// lifecycle returns lifecycle l as the exported Lifecycle.
func (a *Analysis) lifecycle(l int32) Lifecycle {
	lc := &a.lcs[l]
	return Lifecycle{Rel: a.Run.Prog.Schema.DB.RelationAt(lc.rel).Name, Key: lc.key, Left: int(lc.left), Right: int(lc.right)}
}

// Sync processes every event appended to the run since the last call.
func (a *Analysis) Sync() { a.SyncTo(a.Run.Len()) }

// Len returns the number of events processed.
func (a *Analysis) Len() int { return a.processed }

// SyncTo processes events up to (excluding) index n, one event step each.
func (a *Analysis) SyncTo(n int) {
	if n > a.processed && len(a.reqMemo) > 0 {
		// New events can close lifecycles, adding right-boundary
		// requirements to earlier events.
		a.reqMemo = make(map[schema.Peer][][]int)
	}
	for i := a.processed; i < n; i++ {
		a.step(i)
		a.processed++
	}
}

// step records event i: the lifecycles it opens and closes, its fills, and
// the lifecycle each key of K(R, e_i) lies in.
func (a *Analysis) step(i int) {
	effects := a.Run.Effects(i)
	for k := range effects {
		ef := &effects[k]
		switch ef.Kind {
		case program.Created:
			a.intern(lcID{ef.Rel, ef.Key()}, i)
		case program.Deleted:
			if l, ok := a.latest[lcID{ef.Rel, ef.Key()}]; ok && a.lcs[l].right < 0 {
				a.lcs[l].right = int32(i)
				a.closes.ids = append(a.closes.ids, l)
			}
		case program.Modified:
			if ef.Filled == 0 {
				continue
			}
			if l, ok := a.latest[lcID{ef.Rel, ef.Key()}]; ok {
				a.fills = append(a.fills, fill{event: int32(i), prev: a.lcs[l].fills, pos: ef.Filled})
				a.lcs[l].fills = int32(len(a.fills) - 1)
			}
		}
	}
	a.closes.endRow()
	// No lifecycle starts after i yet, and a program's updates of one
	// relation have distinct keys, so no event both closes and opens
	// lifecycles of one key: only a key's newest lifecycle can contain i.
	a.keyBuf = a.Run.Event(i).AppendKeys(a.keyBuf[:0])
	db := a.Run.Prog.Schema.DB
	for _, rk := range a.keyBuf {
		rel, _ := db.ID(rk.Rel)
		if l, ok := a.latest[lcID{rel, rk.Key}]; ok && a.lcs[l].contains(i) {
			a.keyLCs.ids = append(a.keyLCs.ids, l)
		}
	}
	a.keyLCs.endRow()
}

// LifecycleAt returns the R-lifecycle of key k containing event index i, if
// any.
func (a *Analysis) LifecycleAt(rel string, key data.Value, i int) (Lifecycle, bool) {
	id, ok := a.Run.Prog.Schema.DB.ID(rel)
	if !ok {
		return Lifecycle{}, false
	}
	l, ok := a.latest[lcID{id, key}]
	if !ok {
		return Lifecycle{}, false
	}
	for ; l >= 0; l = a.lcs[l].prev {
		if a.lcs[l].contains(i) {
			return a.lifecycle(l), true
		}
	}
	return Lifecycle{}, false
}

// Lifecycles returns every lifecycle of the run, sorted by relation, key
// and left boundary.
func (a *Analysis) Lifecycles() []Lifecycle {
	out := make([]Lifecycle, len(a.lcs))
	for i := range a.lcs {
		out[i] = a.lifecycle(int32(i))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rel != out[j].Rel {
			return out[i].Rel < out[j].Rel
		}
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Left < out[j].Left
	})
	return out
}

// OpenLifecycles returns the lifecycles that no processed event has closed
// yet, in the order they were opened.
func (a *Analysis) OpenLifecycles() []Lifecycle {
	var out []Lifecycle
	for i := range a.lcs {
		if a.lcs[i].right < 0 {
			out = append(out, a.lifecycle(int32(i)))
		}
	}
	return out
}

// relevantFill reports whether a fill of the positions in mask pos on a
// tuple of the relation with handle rel filled an attribute relevant to q
// or p.
func (a *Analysis) relevantFill(rel schema.RelID, pos uint64, q, p schema.Peer) bool {
	byPeer := a.relevant[rel]
	return (byPeer[q]|byPeer[p])&pos != 0
}
