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

// fill records that an event filled attributes of an existing tuple
// (⊥ → value), the raw material of modification faithfulness.
type fill struct {
	rel   string
	key   data.Value
	attrs []data.Attr
}

// Analysis caches the per-run data the faithfulness conditions consume:
// lifecycles, attribute fills, and the relevant-attribute sets att(R, q).
// It can be extended incrementally as the underlying run grows (Sync).
type Analysis struct {
	Run *program.Run

	processed int
	cycles    map[lcID][]Lifecycle
	fills     [][]fill // per event index
	// filledAt[id] lists, ascending, the events that filled attributes of
	// the tuple with key id.key in id.rel.
	filledAt map[lcID][]int

	// relevant[rel][peer] is att(R, q) = att(R@q) ∪ att(σ(R@q)).
	relevant map[string]map[schema.Peer]map[data.Attr]bool

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
var relevantCache sync.Map // *schema.Collaborative → map[string]map[schema.Peer]map[data.Attr]bool

// relevantSets returns the shared, read-only att(R, q) tables for s.
func relevantSets(s *schema.Collaborative) map[string]map[schema.Peer]map[data.Attr]bool {
	if v, ok := relevantCache.Load(s); ok {
		return v.(map[string]map[schema.Peer]map[data.Attr]bool)
	}
	relevant := make(map[string]map[schema.Peer]map[data.Attr]bool)
	for _, name := range s.DB.Names() {
		relevant[name] = make(map[schema.Peer]map[data.Attr]bool)
		for _, p := range s.Peers() {
			v, ok := s.View(p, name)
			if !ok {
				continue
			}
			set := make(map[data.Attr]bool)
			for _, attr := range v.RelevantAttrs() {
				set[attr] = true
			}
			relevant[name][p] = set
		}
	}
	actual, _ := relevantCache.LoadOrStore(s, relevant)
	return actual.(map[string]map[schema.Peer]map[data.Attr]bool)
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
func NewAnalysisPartial(r *program.Run) *Analysis {
	a := &Analysis{
		Run:      r,
		cycles:   make(map[lcID][]Lifecycle),
		filledAt: make(map[lcID][]int),
		relevant: relevantSets(r.Prog.Schema),
		reqMemo:  make(map[schema.Peer][][]int),
	}
	s := r.Prog.Schema
	// Tuples of the initial instance live in lifecycles opened "before"
	// the run (Left = -1).
	for _, name := range s.DB.Names() {
		for _, k := range r.Initial.Keys(name) {
			id := lcID{name, k}
			a.cycles[id] = append(a.cycles[id], Lifecycle{Rel: name, Key: k, Left: -1, Right: -1})
		}
	}
	return a
}

// Sync processes every event appended to the run since the last call.
func (a *Analysis) Sync() { a.SyncTo(a.Run.Len()) }

// SyncTo processes events up to (excluding) index n.
func (a *Analysis) SyncTo(n int) {
	if n > a.processed && len(a.reqMemo) > 0 {
		// New events can close lifecycles, adding right-boundary
		// requirements to earlier events.
		a.reqMemo = make(map[schema.Peer][][]int)
	}
	for i := a.processed; i < n; i++ {
		var fs []fill
		for _, ef := range a.Run.Effects(i) {
			id := lcID{ef.Rel, ef.Key}
			switch ef.Kind {
			case program.Created:
				a.cycles[id] = append(a.cycles[id], Lifecycle{Rel: ef.Rel, Key: ef.Key, Left: i, Right: -1})
			case program.Deleted:
				cs := a.cycles[id]
				if n := len(cs); n > 0 && !cs[n-1].Closed() {
					cs[n-1].Right = i
				}
			case program.Modified:
				if len(ef.Filled) == 0 {
					continue
				}
				rel := a.Run.Prog.Schema.DB.Relation(ef.Rel)
				fs = append(fs, fill{rel: ef.Rel, key: ef.Key, attrs: ef.FilledAttrs(rel)})
				if fa := a.filledAt[id]; len(fa) == 0 || fa[len(fa)-1] != i {
					a.filledAt[id] = append(fa, i)
				}
			}
		}
		a.fills = append(a.fills, fs)
		a.processed++
	}
}

// LifecycleAt returns the R-lifecycle of key k containing event index i, if
// any.
func (a *Analysis) LifecycleAt(rel string, key data.Value, i int) (Lifecycle, bool) {
	for _, lc := range a.cycles[lcID{rel, key}] {
		if lc.Contains(i) {
			return lc, true
		}
	}
	return Lifecycle{}, false
}

// Lifecycles returns every lifecycle of the run, sorted by relation, key
// and left boundary.
func (a *Analysis) Lifecycles() []Lifecycle {
	var out []Lifecycle
	for _, cs := range a.cycles {
		out = append(out, cs...)
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

// OpenLifecycles returns the currently open lifecycles whose key is in the
// given set of relations (nil = all), used by the incremental maintainer.
func (a *Analysis) OpenLifecycles() []Lifecycle {
	var out []Lifecycle
	for _, cs := range a.cycles {
		for _, lc := range cs {
			if !lc.Closed() {
				out = append(out, lc)
			}
		}
	}
	return out
}

// filledRelevant reports whether event i filled, on a tuple of rel with key
// k, an attribute relevant to any of the given peers.
func (a *Analysis) filledRelevant(i int, rel string, key data.Value, peers ...schema.Peer) bool {
	for _, f := range a.fills[i] {
		if f.rel != rel || f.key != key {
			continue
		}
		for _, attr := range f.attrs {
			for _, p := range peers {
				if set, ok := a.relevant[rel][p]; ok && set[attr] {
					return true
				}
			}
		}
	}
	return false
}
