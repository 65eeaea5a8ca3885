package design

import (
	"fmt"

	"collabwf/internal/data"
	"collabwf/internal/program"
	"collabwf/internal/query"
	"collabwf/internal/schema"
)

// Violation reports a transparency or boundedness failure at an event.
type Violation struct {
	EventIndex int
	Reason     string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("event %d: %s", v.EventIndex, v.Reason)
}

// Monitor tracks, stage by stage, which facts of p-invisible relations were
// produced transparently within the current stage and with what
// step-provenance, realizing at run time the acceptance criterion of the
// rewritten program Pᵗ of Theorem 6.7 (see Remark 6.9: instead of blocking,
// an implementation may monitor and alert). A p-visible event is accepted
// only if it is transparent — every invisible fact its body uses was
// produced in the current stage by transparent events — and its
// step-provenance (the set of steps that contributed to it) stays within
// the budget h.
type Monitor struct {
	peer schema.Peer
	h    int
	run  *program.Run
	// views is the peer's view table, indexed by relation handle.
	views []*schema.View

	processed  int
	facts      map[factID]*factState
	deleted    map[factID]bool // transparently created and deleted this stage
	violations []Violation
	// firstSeen maps each key of a p-invisible relation to the first
	// instance holding it: -1 for the initial instance, else the index of
	// the creating event.
	firstSeen map[factID]int
}

type factID struct {
	rel schema.RelID
	key data.Value
}

type factState struct {
	transparent bool
	prov        map[int]struct{} // contributing step indices (run positions)
}

// NewMonitor attaches a monitor for the peer with step budget h to a run
// and processes any events already present.
func NewMonitor(r *program.Run, peer schema.Peer, h int) *Monitor {
	m := &Monitor{
		peer:      peer,
		h:         h,
		run:       r,
		views:     r.Prog.Schema.ViewTable(peer),
		facts:     make(map[factID]*factState),
		deleted:   make(map[factID]bool),
		firstSeen: make(map[factID]int),
	}
	for i, rel := range r.Prog.Schema.DB.Names() {
		if m.views[i] != nil {
			continue
		}
		for _, k := range r.Initial.Keys(rel) {
			m.firstSeen[factID{schema.RelID(i), k}] = -1
		}
	}
	m.Sync()
	return m
}

// Sync processes events appended to the run since the last call.
func (m *Monitor) Sync() {
	for i := m.processed; i < m.run.Len(); i++ {
		m.processOne(i)
		m.processed++
	}
}

// Violations returns the violations found so far.
func (m *Monitor) Violations() []Violation { return m.violations }

// Transparent reports whether the monitored run is transparent and
// h-bounded for the peer so far (no violations).
func (m *Monitor) Transparent() bool { return len(m.violations) == 0 }

func (m *Monitor) processOne(i int) {
	e := m.run.Event(i)
	visible := m.run.VisibleAt(i, m.peer)

	transparent, prov, reason := m.eventStatus(i, e)

	if visible && !transparent {
		m.violations = append(m.violations, Violation{EventIndex: i, Reason: reason})
	}

	// Apply the event's effects to the fact state.
	for _, ef := range m.run.Effects(i) {
		if m.views[ef.Rel] != nil {
			continue // visible facts are transparent by definition
		}
		id := factID{ef.Rel, ef.Key()}
		if _, seen := m.firstSeen[id]; !seen && ef.Kind == program.Created {
			m.firstSeen[id] = i
		}
		switch ef.Kind {
		case program.Created, program.Modified:
			fs := m.facts[id]
			if fs == nil {
				fs = &factState{transparent: true, prov: map[int]struct{}{}}
				if ef.Kind == program.Modified {
					// The tuple predates the current stage; information
					// from earlier stages is opaque by definition.
					fs.transparent = false
				}
				m.facts[id] = fs
			}
			if transparent {
				for s := range prov {
					fs.prov[s] = struct{}{}
				}
			} else {
				fs.transparent = false
			}
		case program.Deleted:
			fs := m.facts[id]
			if transparent && fs != nil && fs.transparent {
				m.deleted[id] = true
			} else {
				delete(m.deleted, id)
			}
			delete(m.facts, id)
		}
	}

	if visible {
		// Stage boundary: facts of earlier stages become unusable in
		// transparent events.
		m.facts = make(map[factID]*factState)
		m.deleted = make(map[factID]bool)
	}
}

// eventStatus determines whether event i is transparent and computes its
// step-provenance: the union of the provenances of the invisible facts its
// body uses, plus the current step.
func (m *Monitor) eventStatus(i int, e *program.Event) (bool, map[int]struct{}, string) {
	prov := map[int]struct{}{i: {}}
	for _, l := range e.Rule.Body {
		switch l := l.(type) {
		case query.Atom:
			if l.Neg {
				continue
			}
			rel, invisible := m.invisible(l.Rel)
			if !invisible {
				continue
			}
			key, ok := e.Apply(l.Args[0])
			if !ok {
				continue
			}
			fs := m.facts[factID{rel, key}]
			if fs == nil {
				return false, nil, fmt.Sprintf("uses invisible fact %s(%s) from an earlier stage", l.Rel, key)
			}
			if !fs.transparent {
				return false, nil, fmt.Sprintf("uses opaquely produced fact %s(%s)", l.Rel, key)
			}
			for s := range fs.prov {
				prov[s] = struct{}{}
			}
		case query.KeyAtom:
			if !l.Neg {
				continue
			}
			rel, invisible := m.invisible(l.Rel)
			if !invisible {
				continue
			}
			key, ok := e.Apply(l.Arg)
			if !ok {
				continue
			}
			id := factID{rel, key}
			if !m.deleted[id] && m.keyEverExisted(i, id) {
				return false, nil, fmt.Sprintf("uses invisible negative fact ¬Key_%s(%s) not established transparently this stage", l.Rel, key)
			}
		}
	}
	if len(prov) > m.h {
		return false, nil, fmt.Sprintf("step-provenance %d exceeds the budget h=%d", len(prov), m.h)
	}
	return true, prov, ""
}

// invisible returns the handle of the named relation (-1 when the schema
// has none, which no fact carries) and whether the peer has no view of it.
func (m *Monitor) invisible(rel string) (schema.RelID, bool) {
	id, ok := m.run.Prog.Schema.DB.ID(rel)
	if !ok {
		return -1, true
	}
	return id, m.views[id] == nil
}

// keyEverExisted reports whether a tuple with this key (of a p-invisible
// relation) existed at any point strictly before event i. A key that never
// existed is transparently absent; one that was deleted in an earlier stage
// (or opaquely) is not. Keys only enter an instance through a Created
// effect, so the first one — recorded as events are processed — decides.
func (m *Monitor) keyEverExisted(i int, id factID) bool {
	j, ok := m.firstSeen[id]
	return ok && j < i
}

// Stages returns the p-stages of the run as index intervals [from, to]
// where event `to` is visible at the peer; a trailing open stage (silent
// suffix) is returned with to = -1.
func Stages(r *program.Run, peer schema.Peer) [][2]int {
	var out [][2]int
	start := 0
	for i := 0; i < r.Len(); i++ {
		if r.VisibleAt(i, peer) {
			out = append(out, [2]int{start, i})
			start = i + 1
		}
	}
	if start < r.Len() {
		out = append(out, [2]int{start, -1})
	}
	return out
}

// CheckRun runs a fresh monitor over a completed run and returns its
// violations — the run is transparent and h-bounded for the peer
// (Definition 6.4, via the Pᵗ criterion) iff the result is empty.
func CheckRun(r *program.Run, peer schema.Peer, h int) []Violation {
	return NewMonitor(r, peer, h).Violations()
}
