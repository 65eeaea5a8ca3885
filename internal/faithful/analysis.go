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

type lcID struct {
	rel string
	key data.Value
}

// lifecycle is an interned R-lifecycle with the per-lifecycle facts the
// faithfulness conditions read.
type lifecycle struct {
	Lifecycle
	// prev is the id of the key's previous lifecycle, -1 for none.
	prev int32
	// fills lists, by ascending event, the attribute fills (⊥ → value) on
	// the tuple during the lifecycle: the raw material of modification
	// faithfulness.
	fills []fill
}

// fill records that an event filled attributes of a tuple.
type fill struct {
	event int
	// pos are the filled attribute positions (the effect's Filled).
	pos []int
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
	// latest maps a key to the id of its newest lifecycle.
	latest map[lcID]int32
	// keyLCs row i lists, for the keys of K(R, e_i) in Keys order, the
	// lifecycle containing i (keys in none are skipped).
	keyLCs rows
	// closes row i lists the lifecycles event i closed.
	closes rows
	// keyBuf holds the keys of the event step is recording.
	keyBuf []program.RelKey

	// relevant[rel][peer][pos] reports whether attribute pos of rel is in
	// att(R, q) = att(R@q) ∪ att(σ(R@q)).
	relevant map[string]map[schema.Peer][]bool

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
var relevantCache sync.Map // *schema.Collaborative → map[string]map[schema.Peer][]bool

// relevantSets returns the shared, read-only att(R, q) tables for s.
func relevantSets(s *schema.Collaborative) map[string]map[schema.Peer][]bool {
	if v, ok := relevantCache.Load(s); ok {
		return v.(map[string]map[schema.Peer][]bool)
	}
	relevant := make(map[string]map[schema.Peer][]bool)
	for _, name := range s.DB.Names() {
		rel := s.DB.Relation(name)
		relevant[name] = make(map[schema.Peer][]bool)
		for _, p := range s.Peers() {
			v, ok := s.View(p, name)
			if !ok {
				continue
			}
			set := make([]bool, rel.Arity())
			for _, attr := range v.RelevantAttrs() {
				if pos, ok := rel.Index(attr); ok {
					set[pos] = true
				}
			}
			relevant[name][p] = set
		}
	}
	actual, _ := relevantCache.LoadOrStore(s, relevant)
	return actual.(map[string]map[schema.Peer][]bool)
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
// per Created effect, a key row holds at most the event's keys, and a
// closes row one id per Deleted effect.
func newAnalysis(r *program.Run, n int) *Analysis {
	s := r.Prog.Schema
	lcs, keys, closes := 0, 0, 0
	for _, name := range s.DB.Names() {
		lcs += r.Initial.Count(name)
	}
	for i := range n {
		for _, ef := range r.Effects(i) {
			switch ef.Kind {
			case program.Created:
				lcs++
			case program.Deleted:
				closes++
			}
		}
		keys += len(r.Event(i).Rule.Layout().Keys)
	}
	a := &Analysis{
		Run:      r,
		lcs:      make([]lifecycle, 0, lcs),
		latest:   make(map[lcID]int32, lcs),
		keyLCs:   rows{off: append(make([]int32, 0, n+1), 0), ids: make([]int32, 0, keys)},
		closes:   rows{off: append(make([]int32, 0, n+1), 0), ids: make([]int32, 0, closes)},
		relevant: relevantSets(s),
		reqMemo:  make(map[schema.Peer][][]int),
	}
	// Tuples of the initial instance live in lifecycles opened "before"
	// the run (Left = -1).
	for _, name := range s.DB.Names() {
		for _, k := range r.Initial.Keys(name) {
			a.intern(Lifecycle{Rel: name, Key: k, Left: -1, Right: -1})
		}
	}
	return a
}

// intern adds lc as its key's newest lifecycle.
func (a *Analysis) intern(lc Lifecycle) {
	id := lcID{lc.Rel, lc.Key}
	prev, ok := a.latest[id]
	if !ok {
		prev = -1
	}
	a.latest[id] = int32(len(a.lcs))
	a.lcs = append(a.lcs, lifecycle{Lifecycle: lc, prev: prev})
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
	for _, ef := range a.Run.Effects(i) {
		switch ef.Kind {
		case program.Created:
			a.intern(Lifecycle{Rel: ef.Rel, Key: ef.Key, Left: i, Right: -1})
		case program.Deleted:
			if l, ok := a.latest[lcID{ef.Rel, ef.Key}]; ok && !a.lcs[l].Closed() {
				a.lcs[l].Right = i
				a.closes.ids = append(a.closes.ids, l)
			}
		case program.Modified:
			if len(ef.Filled) == 0 {
				continue
			}
			if l, ok := a.latest[lcID{ef.Rel, ef.Key}]; ok {
				a.lcs[l].fills = append(a.lcs[l].fills, fill{event: i, pos: ef.Filled})
			}
		}
	}
	a.closes.endRow()
	// No lifecycle starts after i yet, and a program's updates of one
	// relation have distinct keys, so no event both closes and opens
	// lifecycles of one key: only a key's newest lifecycle can contain i.
	a.keyBuf = a.Run.Event(i).AppendKeys(a.keyBuf[:0])
	for _, rk := range a.keyBuf {
		if l, ok := a.latest[lcID{rk.Rel, rk.Key}]; ok && a.lcs[l].Contains(i) {
			a.keyLCs.ids = append(a.keyLCs.ids, l)
		}
	}
	a.keyLCs.endRow()
}

// LifecycleAt returns the R-lifecycle of key k containing event index i, if
// any.
func (a *Analysis) LifecycleAt(rel string, key data.Value, i int) (Lifecycle, bool) {
	l, ok := a.latest[lcID{rel, key}]
	if !ok {
		return Lifecycle{}, false
	}
	for ; l >= 0; l = a.lcs[l].prev {
		if a.lcs[l].Contains(i) {
			return a.lcs[l].Lifecycle, true
		}
	}
	return Lifecycle{}, false
}

// Lifecycles returns every lifecycle of the run, sorted by relation, key
// and left boundary.
func (a *Analysis) Lifecycles() []Lifecycle {
	out := make([]Lifecycle, len(a.lcs))
	for i := range a.lcs {
		out[i] = a.lcs[i].Lifecycle
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
		if !a.lcs[i].Closed() {
			out = append(out, a.lcs[i].Lifecycle)
		}
	}
	return out
}

// relevantFill reports whether a fill of positions pos on a tuple of rel
// filled an attribute relevant to q or p.
func (a *Analysis) relevantFill(rel string, pos []int, q, p schema.Peer) bool {
	byPeer := a.relevant[rel]
	rq, rp := byPeer[q], byPeer[p]
	for _, k := range pos {
		if (rq != nil && rq[k]) || (rp != nil && rp[k]) {
			return true
		}
	}
	return false
}
