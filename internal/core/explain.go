// Package core is the library's primary API: explanations of collaborative
// workflow runs for individual peers, as developed in the paper.
//
// Runtime explanations (Sections 3–4): for a peer p and a (possibly
// growing) run, the Explainer maintains the unique minimal p-faithful
// scenario — the provably smallest subrun that is observationally
// equivalent for p and faithful to what actually happened — and per-event
// explanations, using the incremental algorithm of Section 4.
//
// Static explanations (Section 5): Synthesize builds, for transparent and
// h-bounded programs, a view program whose rules describe every transition
// the peer can observe together with its provenance; CheckBounded and
// CheckTransparent decide the two hypotheses.
package core

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"collabwf/internal/faithful"
	"collabwf/internal/jsonw"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/synth"
	"collabwf/internal/transparency"
)

// RunReader is the read-only view of a run prefix that report building
// needs: event descriptions depend only on the step sequence and the
// schema. *program.Run satisfies it; so does an immutable snapshot of a
// released prefix (the server's lock-free read path).
type RunReader interface {
	Schema() *schema.Collaborative
	Event(i int) *program.Event
	Effects(i int) []program.Effect
	VisibleAt(i int, p schema.Peer) bool
}

// Explainer provides runtime explanations of a run for one peer. It is
// attached to a run and kept current with Sync; maintenance is incremental
// (one T_p application per new event, not a fixpoint recomputation).
type Explainer struct {
	Run  *program.Run
	Peer schema.Peer

	maint *faithful.Maintainer
}

// NewExplainer attaches an explainer for the peer to the run.
func NewExplainer(r *program.Run, peer schema.Peer) *Explainer {
	return NewExplainerAt(r, peer, r.Len())
}

// NewExplainerAt attaches an explainer processing only the first n events
// of the run — for callers that expose a bounded prefix (e.g. a durable
// coordinator whose buffered tail is not yet fsynced).
func NewExplainerAt(r *program.Run, peer schema.Peer, n int) *Explainer {
	return &Explainer{Run: r, Peer: peer, maint: faithful.NewMaintainerAt(r, n, peer)}
}

// Sync processes events appended to the run since the last call.
func (e *Explainer) Sync() { e.maint.Sync() }

// SyncTo processes events up to (exclusive) index n only, so explanations
// never describe events past the caller's chosen prefix.
func (e *Explainer) SyncTo(n int) { e.maint.SyncTo(n) }

// MinimalScenario returns the event indices of the unique minimal
// p-faithful scenario of the run (Theorem 4.7) — the canonical explanation
// of everything the peer has observed.
func (e *Explainer) MinimalScenario() []int { return e.maint.Minimal(e.Peer).Sorted() }

// ExplainEvent returns the minimal boundary- and modification-faithful
// explanation of a single event: the events of the run that the given one
// depends on (plus itself), whether or not it is visible to the peer.
func (e *Explainer) ExplainEvent(i int) []int { return e.maint.Explanation(e.Peer, i).Sorted() }

// ScenarioRun replays the minimal faithful scenario as a standalone run
// (Lemma 4.6 guarantees this succeeds).
func (e *Explainer) ScenarioRun() (*program.Run, error) {
	a := faithful.NewAnalysis(e.Run)
	_, sub, err := faithful.Minimal(a, e.Peer)
	return sub, err
}

// Report builds a structured, human-readable explanation of the run from
// the peer's perspective: one section per transition the peer observed,
// listing the (possibly invisible) events that caused it.
func (e *Explainer) Report() *Report {
	// Describe only the synced prefix: events past it (buffered but not
	// yet released by the caller) must not leak into the report.
	return buildReport(e.Run, e.Peer, e.Run.VisibleEvents(e.Peer), e.maint.Len(), e.ExplainEvent)
}

// buildReport is the report construction shared by the live Explainer and
// FrozenExplainer: the transitions walkReport yields, in order.
func buildReport(rr RunReader, peer schema.Peer, visible []int, n int, explain func(int) []int) *Report {
	rep := &Report{Peer: peer}
	walkReport(rr, peer, visible, n, explain, func(tr Transition) {
		rep.Transitions = append(rep.Transitions, tr)
	})
	return rep
}

// walkReport yields a report's transitions in order, one at a time: each
// visible event below the prefix bound n, described with the explanation
// function's (ascending) event indices — earlier ones not reported under a
// previous transition as Because, later ones as Pending.
func walkReport(rr RunReader, peer schema.Peer, visible []int, n int, explain func(int) []int, yield func(Transition)) {
	explained := make([]bool, n)
	for _, i := range visible {
		if i >= n {
			break
		}
		tr := Transition{Index: i, Event: describeEvent(rr, i, peer)}
		for _, j := range explain(i) {
			if j == i || j < n && explained[j] {
				continue
			}
			note := describeEvent(rr, j, peer)
			if j < i {
				tr.Because = append(tr.Because, note)
				explained[j] = true
			} else {
				// Boundary faithfulness can pull in later events (e.g. the
				// deletion closing a lifecycle the transition touched).
				tr.Pending = append(tr.Pending, note)
			}
		}
		explained[i] = true
		yield(tr)
	}
}

// Freeze captures the explainer's state as an immutable FrozenExplainer
// safe for concurrent lock-free readers. O(1) — see faithful.Maintainer's
// Freeze.
func (e *Explainer) Freeze() *FrozenExplainer {
	return &FrozenExplainer{Peer: e.Peer, fz: e.maint.Freeze(e.Peer)}
}

// RunExplainer provides runtime explanations of a run for a set of peers,
// all maintained over one shared lifecycle analysis that advances once per
// event: the per-peer explainers of a served run, at the cost of one
// analysis instead of one per peer. Like Explainer, it is kept current
// with SyncTo and captured for lock-free readers with Freeze.
type RunExplainer struct {
	Run *program.Run

	maint *faithful.Maintainer
}

// NewRunExplainerAt attaches an explainer for the peers processing the
// first n events of the run.
func NewRunExplainerAt(r *program.Run, peers []schema.Peer, n int) *RunExplainer {
	return &RunExplainer{Run: r, maint: faithful.NewMaintainerAt(r, n, peers...)}
}

// SyncTo processes events up to (exclusive) index n only.
func (e *RunExplainer) SyncTo(n int) { e.maint.SyncTo(n) }

// Len returns the number of events processed: the event steps its one
// analysis has taken.
func (e *RunExplainer) Len() int { return e.maint.Len() }

// Freeze captures the peer's explanations as of the processed prefix, in
// O(1); the peer must be one of the explainer's.
func (e *RunExplainer) Freeze(peer schema.Peer) *FrozenExplainer {
	return &FrozenExplainer{Peer: peer, fz: e.maint.Freeze(peer)}
}

// FrozenExplainer answers explanation queries over a fixed run prefix — the
// state an explainer had when Freeze was called — with no locking and no
// access to the live run. The server's read snapshots hold one per peer.
type FrozenExplainer struct {
	Peer schema.Peer

	fz *faithful.Frozen
}

// Len returns the number of events the capture covers.
func (f *FrozenExplainer) Len() int { return f.fz.Len() }

// MinimalScenario returns the event indices of the minimal p-faithful
// scenario as of the freeze point.
func (f *FrozenExplainer) MinimalScenario() []int { return f.fz.Minimal() }

// ExplainEvent returns the minimal faithful explanation of event i as of
// the freeze point.
func (f *FrozenExplainer) ExplainEvent(i int) []int { return f.fz.Explanation(i) }

// Visible returns the peer's visible event indices over the captured
// prefix, ascending — the same list ReportOver takes. The slice is shared:
// callers must not modify it.
func (f *FrozenExplainer) Visible() []int { return f.fz.Visible() }

// ReportOver builds the peer's explanation report over rr, whose first
// Len() events must be the prefix the explainer was frozen at; visible
// lists the peer's visible event indices over that prefix (ascending).
// Semantically identical to Explainer.Report on the same prefix.
func (f *FrozenExplainer) ReportOver(rr RunReader, visible []int) *Report {
	return buildReport(rr, f.Peer, visible, f.fz.Len(), f.ExplainEvent)
}

// WriteJSON streams the report ReportOver(rr, f.Visible()) builds as
// encoding/json encodes {"report": rep, "text": rep.String()}, trailing
// newline included, one transition at a time: neither the report nor its
// text is ever built whole. The text, as rendered before JSON escaping, is
// also written to digest when it is non-nil.
func (f *FrozenExplainer) WriteJSON(w *bufio.Writer, rr RunReader, digest io.Writer) {
	walk := func(yield func(Transition)) {
		walkReport(rr, f.Peer, f.Visible(), f.fz.Len(), f.ExplainEvent, yield)
	}
	w.WriteString(`{"report":{"Peer":`)
	jsonw.WriteString(w, string(f.Peer))
	w.WriteString(`,"Transitions":`)
	sep := byte('[')
	walk(func(tr Transition) {
		w.WriteByte(sep)
		sep = ','
		tr.writeJSON(w)
	})
	if sep == '[' {
		w.WriteString("null")
	} else {
		w.WriteByte(']')
	}
	w.WriteString(`},"text":"`)
	line := appendHeader(nil, f.Peer)
	text := func() {
		if digest != nil {
			_, _ = digest.Write(line) // a hash never fails
		}
		w.WriteString(jsonw.Escape(string(line)))
	}
	text()
	walk(func(tr Transition) {
		line = tr.appendText(line[:0], f.Peer)
		text()
	})
	w.WriteString("\"}\n")
}

// Report is a runtime explanation of a run for one peer.
type Report struct {
	Peer        schema.Peer
	Transitions []Transition
}

// Transition explains one observed transition.
type Transition struct {
	Index int
	Event EventNote
	// Because lists the earlier events (not yet reported under a previous
	// transition) that this transition faithfully depends on.
	Because []EventNote
	// Pending lists later events the faithful explanation includes (right
	// boundaries of lifecycles the transition touched).
	Pending []EventNote
}

// EventNote describes one event for the report.
type EventNote struct {
	Index   int
	Peer    schema.Peer
	Rule    string
	Visible bool
	Changes []string
}

func describeEvent(r RunReader, i int, peer schema.Peer) EventNote {
	e := r.Event(i)
	n := EventNote{Index: i, Peer: e.Peer(), Rule: e.Rule.Name, Visible: r.VisibleAt(i, peer)}
	for _, ef := range r.Effects(i) {
		switch ef.Kind {
		case program.Created:
			n.Changes = append(n.Changes, fmt.Sprintf("created %s%s", ef.Rel, ef.After))
		case program.Deleted:
			n.Changes = append(n.Changes, fmt.Sprintf("deleted %s%s", ef.Rel, ef.Before))
		case program.Modified:
			rel := r.Schema().DB.Relation(ef.Rel)
			attrs := ef.FilledAttrs(rel)
			if len(attrs) == 0 {
				continue
			}
			parts := make([]string, len(attrs))
			for k, a := range attrs {
				pos, _ := rel.Index(a)
				parts[k] = fmt.Sprintf("%s=%s", a, ef.After[pos])
			}
			n.Changes = append(n.Changes, fmt.Sprintf("set %s[%s] %s", ef.Rel, ef.Key, strings.Join(parts, ", ")))
		}
	}
	return n
}

// String renders the report as indented text.
func (rep *Report) String() string {
	b := appendHeader(nil, rep.Peer)
	for i := range rep.Transitions {
		b = rep.Transitions[i].appendText(b, rep.Peer)
	}
	return string(b)
}

// appendHeader appends the report text's first line.
func appendHeader(b []byte, peer schema.Peer) []byte {
	b = append(b, "explanation for peer "...)
	b = append(b, peer...)
	return append(b, '\n')
}

// appendText appends the transition's lines of the text of peer's report.
func (tr *Transition) appendText(b []byte, peer schema.Peer) []byte {
	b = append(b, "observed "...)
	b = tr.Event.appendRef(b)
	b = append(b, " by "...)
	if tr.Event.Peer != peer {
		b = append(b, "ω ("...)
		b = append(b, tr.Event.Peer...)
		b = append(b, ')')
	} else {
		b = append(b, peer...)
	}
	b = tr.Event.appendChanges(b)
	for i := range tr.Because {
		b = tr.Because[i].appendLine(b, "    because ", true)
	}
	for i := range tr.Pending {
		b = tr.Pending[i].appendLine(b, "    later ", false)
	}
	return b
}

// appendLine appends the note's line under a transition: the label, the
// event and its peer, its visibility when asked for, and its changes.
func (n *EventNote) appendLine(b []byte, label string, visibility bool) []byte {
	b = append(b, label...)
	b = n.appendRef(b)
	b = append(b, " by "...)
	b = append(b, n.Peer...)
	switch {
	case !visibility:
	case n.Visible:
		b = append(b, " (visible)"...)
	default:
		b = append(b, " (invisible)"...)
	}
	return n.appendChanges(b)
}

// appendRef appends "#index rule".
func (n *EventNote) appendRef(b []byte) []byte {
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(n.Index), 10)
	b = append(b, ' ')
	return append(b, n.Rule...)
}

// appendChanges appends ": " and the changes, "; "-separated, ending the
// line.
func (n *EventNote) appendChanges(b []byte) []byte {
	b = append(b, ": "...)
	for k, c := range n.Changes {
		if k > 0 {
			b = append(b, "; "...)
		}
		b = append(b, c...)
	}
	return append(b, '\n')
}

// writeJSON writes tr as encoding/json encodes a Transition.
func (tr *Transition) writeJSON(w *bufio.Writer) {
	w.WriteString(`{"Index":`)
	jsonw.WriteInt(w, tr.Index)
	w.WriteString(`,"Event":`)
	tr.Event.writeJSON(w)
	w.WriteString(`,"Because":`)
	writeNotesJSON(w, tr.Because)
	w.WriteString(`,"Pending":`)
	writeNotesJSON(w, tr.Pending)
	w.WriteByte('}')
}

// writeNotesJSON writes notes as encoding/json encodes a []EventNote.
func writeNotesJSON(w *bufio.Writer, notes []EventNote) {
	if notes == nil {
		w.WriteString("null")
		return
	}
	w.WriteByte('[')
	for k := range notes {
		if k > 0 {
			w.WriteByte(',')
		}
		notes[k].writeJSON(w)
	}
	w.WriteByte(']')
}

// writeJSON writes n as encoding/json encodes an EventNote.
func (n *EventNote) writeJSON(w *bufio.Writer) {
	w.WriteString(`{"Index":`)
	jsonw.WriteInt(w, n.Index)
	w.WriteString(`,"Peer":`)
	jsonw.WriteString(w, string(n.Peer))
	w.WriteString(`,"Rule":`)
	jsonw.WriteString(w, n.Rule)
	if n.Visible {
		w.WriteString(`,"Visible":true,"Changes":`)
	} else {
		w.WriteString(`,"Visible":false,"Changes":`)
	}
	if n.Changes == nil {
		w.WriteString("null}")
		return
	}
	w.WriteByte('[')
	for k, c := range n.Changes {
		if k > 0 {
			w.WriteByte(',')
		}
		jsonw.WriteString(w, c)
	}
	w.WriteString("]}")
}

// Options re-exports the static-analysis search options.
type Options = transparency.Options

// CheckBounded decides h-boundedness of a program for a peer
// (Theorem 5.10). A nil violation means the program is h-bounded relative
// to the search caps.
func CheckBounded(p *program.Program, peer schema.Peer, h int, opts Options) (*transparency.BoundViolation, error) {
	return transparency.CheckBounded(p, peer, h, opts)
}

// CheckBoundedCtx is CheckBounded with a cancellable context.
func CheckBoundedCtx(ctx context.Context, p *program.Program, peer schema.Peer, h int, opts Options) (*transparency.BoundViolation, error) {
	return transparency.CheckBoundedCtx(ctx, p, peer, h, opts)
}

// CheckTransparent decides transparency of an h-bounded program for a peer
// (Theorem 5.11).
func CheckTransparent(p *program.Program, peer schema.Peer, h int, opts Options) (*transparency.TransparencyViolation, error) {
	return transparency.CheckTransparent(p, peer, h, opts)
}

// CheckTransparentCtx is CheckTransparent with a cancellable context.
func CheckTransparentCtx(ctx context.Context, p *program.Program, peer schema.Peer, h int, opts Options) (*transparency.TransparencyViolation, error) {
	return transparency.CheckTransparentCtx(ctx, p, peer, h, opts)
}

// Synthesize constructs the view program P@p of a transparent, h-bounded
// program (Theorem 5.13). The body of each ω-rule is the provenance — in
// terms of data the peer sees — of the transition the rule describes.
func Synthesize(p *program.Program, peer schema.Peer, h int, opts Options) (*synth.Result, error) {
	return synth.Synthesize(p, peer, h, opts)
}
