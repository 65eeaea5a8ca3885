// Package view implements peer views of runs (Definition 3.1): the p-view
// ρ@p of a run is the sequence of transitions visible at p, each labeled
// with the event itself when p performed it and with the symbol ω ("world")
// otherwise, paired with p's view of the resulting instance.
package view

import (
	"fmt"
	"strings"

	"collabwf/internal/program"
	"collabwf/internal/schema"
)

// Entry is one element of a run view: a transition visible at the peer.
type Entry struct {
	// Index is the position of the event in the underlying run.
	Index int
	// Omega is true when the event was performed by another peer; the
	// event label is then ω and Event is nil.
	Omega bool
	// Event is the peer's own event (nil when Omega).
	Event *program.Event
	// After is the peer's view of the instance after the transition.
	After *schema.ViewInstance
}

// RunView is ρ@p: the sequence of transitions of ρ visible at p.
type RunView struct {
	Peer    schema.Peer
	Entries []Entry
}

// Of computes ρ@p. The instances the run does not keep are rolled forward
// by one cursor, so the views cost one pass over the run's effects.
func Of(r *program.Run, p schema.Peer) *RunView {
	rv := &RunView{Peer: p}
	cur := r.Cursor()
	for i := 0; i < r.Len(); i++ {
		if !r.VisibleAt(i, p) {
			continue
		}
		e := r.Event(i)
		after := schema.ViewOf(cur.Version(i), r.Schema(), p).CountConds(r.Profiler().Profiler().Cond())
		entry := Entry{Index: i, After: after}
		if e.Peer() == p {
			entry.Event = e
		} else {
			entry.Omega = true
		}
		rv.Entries = append(rv.Entries, entry)
	}
	return rv
}

// Len returns the number of visible transitions.
func (rv *RunView) Len() int { return len(rv.Entries) }

// Equal reports observational equality of two run views for the same peer:
// the same sequence of labels (own events compared as instantiations, all
// foreign events collapsing to ω) with the same view instances.
func (rv *RunView) Equal(other *RunView) bool {
	if other == nil {
		return rv == nil
	}
	if len(rv.Entries) != len(other.Entries) {
		return false
	}
	for i := range rv.Entries {
		a, b := rv.Entries[i], other.Entries[i]
		if a.Omega != b.Omega {
			return false
		}
		if !a.Omega && !a.Event.Equal(b.Event) {
			return false
		}
		if !a.After.Equal(b.After) {
			return false
		}
	}
	return true
}

// String renders the view for debugging.
func (rv *RunView) String() string {
	parts := make([]string, len(rv.Entries))
	for i, e := range rv.Entries {
		label := "ω"
		if !e.Omega {
			label = e.Event.String()
		}
		parts[i] = fmt.Sprintf("(%s, %s)", label, e.After)
	}
	return fmt.Sprintf("%s: [%s]", rv.Peer, strings.Join(parts, "; "))
}
