// Package core is the library's primary API: explanations of collaborative
// workflow runs for individual peers, as developed in the paper.
//
// Runtime explanations (Sections 3–4): for a peer p and a (possibly
// growing) run, the Explainer maintains the unique minimal p-faithful
// scenario — the provably smallest subrun that is observationally
// equivalent for p and faithful to what actually happened — and per-event
// explanations, using the incremental algorithm of Section 4.
//
// Static explanations (Section 5) live in their own packages: synth builds,
// for transparent and h-bounded programs, a view program whose rules
// describe every transition the peer can observe together with its
// provenance, and transparency decides the two hypotheses.
package core

import (
	"bufio"
	"io"
	"math/bits"
	"strconv"

	"collabwf/internal/data"
	"collabwf/internal/faithful"
	"collabwf/internal/jsonw"
	"collabwf/internal/program"
	"collabwf/internal/scenario"
	"collabwf/internal/schema"
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

// ScenarioRun replays the minimal faithful scenario of the synced prefix
// as a standalone run (Lemma 4.6 guarantees this succeeds).
func (e *Explainer) ScenarioRun() (*program.Run, error) {
	return scenario.Replay(e.Run, e.MinimalScenario())
}

// Report builds a structured, human-readable explanation of the run from
// the peer's perspective: one section per transition the peer observed,
// listing the (possibly invisible) events that caused it.
func (e *Explainer) Report() *Report {
	// Describe only the synced prefix (the freeze covers exactly it):
	// events past it (buffered but not yet released by the caller) must
	// not leak into the report.
	return e.Freeze().Report(e.Run)
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
// prefix, ascending — the list Report reads. The slice is shared:
// callers must not modify it.
func (f *FrozenExplainer) Visible() []int32 { return f.fz.Visible() }

// Walker returns a walker of the capture's explanations: its Explain(i)
// is ExplainEvent(i) in a slice the next call reuses, so a caller walking
// many events reuses one scratch.
func (f *FrozenExplainer) Walker() *faithful.Walker { return f.fz.Walker() }

// ReportOver builds the peer's explanation report over rr, whose first
// Len() events must be the prefix the explainer was frozen at; visible
// lists the peer's visible event indices over that prefix (ascending).
// Semantically identical to Explainer.Report on the same prefix.
func (f *FrozenExplainer) ReportOver(rr RunReader, visible []int) *Report {
	vis := make([]int32, len(visible))
	for k, i := range visible {
		vis[k] = int32(i)
	}
	return f.report(rr, vis)
}

// Report is ReportOver(rr, f.Visible()): the peer's report over the
// captured prefix.
func (f *FrozenExplainer) Report(rr RunReader) *Report { return f.report(rr, f.Visible()) }

func (f *FrozenExplainer) report(rr RunReader, visible []int32) *Report {
	w := f.newReportWriter(rr, visible, nil)
	rep := &Report{Peer: f.Peer}
	w.walk(func(i int, because, pending []int) {
		tr := Transition{Index: i, Event: w.describeEvent(i)}
		for _, j := range because {
			tr.Because = append(tr.Because, w.describeEvent(j))
		}
		for _, j := range pending {
			tr.Pending = append(tr.Pending, w.describeEvent(j))
		}
		rep.Transitions = append(rep.Transitions, tr)
	})
	return rep
}

// WriteJSON streams the report Report(rr) builds as
// encoding/json encodes {"report": rep, "text": rep.String()}, trailing
// newline included, straight from rr's recorded steps: no note, and
// neither the report nor its text, is ever built. The text, as rendered
// before JSON escaping, is also written to digest when it is non-nil.
func (f *FrozenExplainer) WriteJSON(out *bufio.Writer, rr RunReader, digest io.Writer) {
	w := f.newReportWriter(rr, f.Visible(), out)
	out.WriteString(`{"report":{"Peer":`)
	writeString(w, string(f.Peer))
	out.WriteString(`,"Transitions":`)
	sep := byte('[')
	w.walk(func(i int, because, pending []int) {
		out.WriteByte(sep)
		sep = ','
		out.WriteString(`{"Index":`)
		w.writeInt(i)
		out.WriteString(`,"Event":`)
		w.writeNote(i)
		out.WriteString(`,"Because":`)
		w.writeNotes(because)
		out.WriteString(`,"Pending":`)
		w.writeNotes(pending)
		out.WriteByte('}')
	})
	if sep == '[' {
		out.WriteString("null")
	} else {
		out.WriteByte(']')
	}
	out.WriteString(`},"text":"`)
	w.change = appendHeader(w.change[:0], f.Peer)
	w.writeText(digest)
	w.walk(func(i int, because, pending []int) {
		w.writeLine(observedLine, i, digest)
		for _, j := range because {
			w.writeLine(becauseLine, j, digest)
		}
		for _, j := range pending {
			w.writeLine(laterLine, j, digest)
		}
	})
	out.WriteString("\"}\n")
}

// reportWriter renders one peer's report over a frozen prefix from the
// run's recorded steps. walk yields each transition's event indices, and
// every note is rendered from rr.Event, rr.Effects and rr.VisibleAt when it
// is reached. Nothing is kept per note: the index and byte buffers are
// reused from one transition, note or line to the next, so a request
// allocates a handful of buffers whatever the run's length.
type reportWriter struct {
	rr      RunReader
	walker  *faithful.Walker
	peer    schema.Peer
	visible []int32
	// out receives the streamed body (nil when building a Report).
	out *bufio.Writer

	// explained[j] is set once event j has been reported, as a transition
	// or under one.
	explained []bool
	// because and pending are the current transition's explanation's
	// events not reported yet, earlier and later than the transition.
	because, pending []int
	// change holds the change or text line being rendered; esc holds what
	// is written next, JSON-escaped.
	change, esc []byte
}

// newReportWriter returns a writer of f's report over rr; out is nil when
// the writer builds a Report.
func (f *FrozenExplainer) newReportWriter(rr RunReader, visible []int32, out *bufio.Writer) *reportWriter {
	return &reportWriter{rr: rr, walker: f.fz.Walker(), peer: f.Peer, visible: visible, out: out, explained: make([]bool, f.fz.Len())}
}

// walk calls yield for each visible event i below the frozen prefix's
// length, in order, with the events of i's (ascending) explanation not
// reported under an earlier transition: the earlier ones as because, the
// later ones as pending. The slices are reused by the next call.
func (w *reportWriter) walk(yield func(i int, because, pending []int)) {
	clear(w.explained)
	for _, v := range w.visible {
		i := int(v)
		if i >= len(w.explained) {
			break
		}
		w.because, w.pending = w.because[:0], w.pending[:0]
		for _, j := range w.walker.Explain(i) {
			switch {
			case j == i || w.explained[j]:
			case j < i:
				w.because = append(w.because, j)
				w.explained[j] = true
			default:
				// Boundary faithfulness can pull in later events (e.g. the
				// deletion closing a lifecycle the transition touched).
				w.pending = append(w.pending, j)
			}
		}
		w.explained[i] = true
		yield(i, w.because, w.pending)
	}
}

// describeEvent builds event j's note for a Report.
func (w *reportWriter) describeEvent(j int) EventNote {
	e := w.rr.Event(j)
	n := EventNote{Index: j, Peer: e.Peer(), Rule: e.Rule.Name, Visible: w.rr.VisibleAt(j, w.peer)}
	w.eachChange(j, func(ef *program.Effect) {
		w.change = appendChange(w.change[:0], w.rr.Schema(), ef)
		n.Changes = append(n.Changes, string(w.change))
	})
	return n
}

// eachChange calls f with each effect of event j a report describes, in
// order: a modification that filled no attribute is left out.
func (w *reportWriter) eachChange(j int, f func(ef *program.Effect)) {
	effects := w.rr.Effects(j)
	for k := range effects {
		if ef := &effects[k]; ef.Kind != program.Modified || ef.Filled != 0 {
			f(ef)
		}
	}
}

// writeNotes writes the events' notes as encoding/json encodes the
// []EventNote describeEvent builds for them.
func (w *reportWriter) writeNotes(events []int) {
	if len(events) == 0 {
		w.out.WriteString("null")
		return
	}
	for k, j := range events {
		if k == 0 {
			w.out.WriteByte('[')
		} else {
			w.out.WriteByte(',')
		}
		w.writeNote(j)
	}
	w.out.WriteByte(']')
}

// writeNote writes event j's note as encoding/json encodes the EventNote
// describeEvent builds for it.
func (w *reportWriter) writeNote(j int) {
	e := w.rr.Event(j)
	w.out.WriteString(`{"Index":`)
	w.writeInt(j)
	w.out.WriteString(`,"Peer":`)
	writeString(w, string(e.Peer()))
	w.out.WriteString(`,"Rule":`)
	writeString(w, e.Rule.Name)
	if w.rr.VisibleAt(j, w.peer) {
		w.out.WriteString(`,"Visible":true,"Changes":`)
	} else {
		w.out.WriteString(`,"Visible":false,"Changes":`)
	}
	sep := byte('[')
	w.eachChange(j, func(ef *program.Effect) {
		w.out.WriteByte(sep)
		sep = ','
		w.change = appendChange(w.change[:0], w.rr.Schema(), ef)
		writeString(w, w.change)
	})
	if sep == '[' {
		w.out.WriteString("null}")
	} else {
		w.out.WriteString("]}")
	}
}

// writeLine renders the text line of the given kind about event j into
// change and writes it out.
func (w *reportWriter) writeLine(kind lineKind, j int, digest io.Writer) {
	e := w.rr.Event(j)
	n := EventNote{Index: j, Peer: e.Peer(), Rule: e.Rule.Name, Visible: kind == becauseLine && w.rr.VisibleAt(j, w.peer)}
	w.change = appendLine(w.change[:0], kind, w.peer, &n, func(b []byte) []byte {
		sep := ""
		w.eachChange(j, func(ef *program.Effect) {
			b = appendChange(append(b, sep...), w.rr.Schema(), ef)
			sep = "; "
		})
		return b
	})
	w.writeText(digest)
}

// writeText writes the text in change, JSON-escaped, and feeds it
// unescaped to digest when that is non-nil.
func (w *reportWriter) writeText(digest io.Writer) {
	if digest != nil {
		_, _ = digest.Write(w.change) // a hash never fails
	}
	w.esc = jsonw.AppendEscaped(w.esc[:0], w.change)
	w.out.Write(w.esc)
}

// writeInt writes n as a JSON number.
func (w *reportWriter) writeInt(n int) {
	w.esc = strconv.AppendInt(w.esc[:0], int64(n), 10)
	w.out.Write(w.esc)
}

// writeString writes s as a JSON string literal. It escapes into the
// writer's own buffer: appending to out's AvailableBuffer would
// reallocate whenever a string straddles a buffer fill.
func writeString[S []byte | string](w *reportWriter, s S) {
	w.esc = jsonw.AppendString(w.esc[:0], s)
	w.out.Write(w.esc)
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

// appendChange appends the change ef records as a report describes it:
// "created R(v, …)", "deleted R(v, …)" or "set R[k] A=v, …" (the filled
// attributes).
func appendChange(b []byte, s *schema.Collaborative, ef *program.Effect) []byte {
	rel := s.DB.RelationAt(ef.Rel)
	name := rel.Name
	switch ef.Kind {
	case program.Created:
		b = append(b, "created "...)
		b = append(b, name...)
		return appendTuple(b, ef.After.Tuple())
	case program.Deleted:
		b = append(b, "deleted "...)
		b = append(b, name...)
		return appendTuple(b, ef.Before.Tuple())
	}
	after := ef.After.Tuple()
	b = append(b, "set "...)
	b = append(b, name...)
	b = append(b, '[')
	b = append(b, after.Key()...)
	b = append(b, "] "...)
	for m := ef.Filled; m != 0; m &= m - 1 {
		if m != ef.Filled {
			b = append(b, ", "...)
		}
		pos := bits.TrailingZeros64(m)
		b = append(b, rel.Attrs[pos]...)
		b = append(b, '=')
		b = append(b, after[pos]...)
	}
	return b
}

// appendTuple appends t as data.Tuple.String renders it.
func appendTuple(b []byte, t data.Tuple) []byte {
	b = append(b, '(')
	for i, v := range t {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, v...)
	}
	return append(b, ')')
}

// String renders the report as indented text.
func (rep *Report) String() string {
	b := appendHeader(nil, rep.Peer)
	for i := range rep.Transitions {
		tr := &rep.Transitions[i]
		b = appendLine(b, observedLine, rep.Peer, &tr.Event, tr.Event.appendChanges)
		for k := range tr.Because {
			b = appendLine(b, becauseLine, rep.Peer, &tr.Because[k], tr.Because[k].appendChanges)
		}
		for k := range tr.Pending {
			b = appendLine(b, laterLine, rep.Peer, &tr.Pending[k], tr.Pending[k].appendChanges)
		}
	}
	return string(b)
}

// appendHeader appends the report text's first line.
func appendHeader(b []byte, peer schema.Peer) []byte {
	b = append(b, "explanation for peer "...)
	b = append(b, peer...)
	return append(b, '\n')
}

// lineKind is the role of the event a line of a report's text is about.
type lineKind uint8

const (
	observedLine lineKind = iota // a transition the reader observed
	becauseLine                  // an earlier event it depends on
	laterLine                    // a later event of its explanation
)

// appendLine appends the line of reader's report text about n: the
// kind's label, "#index rule by peer", then ": ", the changes that
// changes appends ("; "-separated) and a newline. An observed event
// another peer fired shows its peer as "ω (peer)"; a because line adds
// the event's visibility. Report.String passes the note's own changes;
// the streamed report, whose notes carry none, renders them from the run.
func appendLine(b []byte, kind lineKind, reader schema.Peer, n *EventNote, changes func([]byte) []byte) []byte {
	switch kind {
	case observedLine:
		b = append(b, "observed #"...)
	case becauseLine:
		b = append(b, "    because #"...)
	default:
		b = append(b, "    later #"...)
	}
	b = strconv.AppendInt(b, int64(n.Index), 10)
	b = append(b, ' ')
	b = append(b, n.Rule...)
	b = append(b, " by "...)
	if kind == observedLine && n.Peer != reader {
		b = append(b, "ω ("...)
		b = append(b, n.Peer...)
		b = append(b, ')')
	} else {
		b = append(b, n.Peer...)
	}
	switch {
	case kind != becauseLine:
	case n.Visible:
		b = append(b, " (visible)"...)
	default:
		b = append(b, " (invisible)"...)
	}
	b = append(b, ": "...)
	return append(changes(b), '\n')
}

// appendChanges appends the note's changes, "; "-separated.
func (n *EventNote) appendChanges(b []byte) []byte {
	for k, c := range n.Changes {
		if k > 0 {
			b = append(b, "; "...)
		}
		b = append(b, c...)
	}
	return b
}
