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
	"context"
	"fmt"
	"sort"
	"strings"

	"collabwf/internal/faithful"
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
// FrozenExplainer: iterate the visible events below the prefix bound n,
// describing each with the explanation function's (sorted) event indices.
func buildReport(rr RunReader, peer schema.Peer, visible []int, n int, explain func(int) []int) *Report {
	rep := &Report{Peer: peer}
	explained := make(map[int]bool)
	for _, i := range visible {
		if i >= n {
			break
		}
		tr := Transition{Index: i, Event: describeEvent(rr, i, peer)}
		for _, j := range explain(i) {
			if j == i || explained[j] {
				continue
			}
			note := describeEvent(rr, j, peer)
			if j < i {
				tr.Because = append(tr.Because, note)
			} else {
				// Boundary faithfulness can pull in later events (e.g. the
				// deletion closing a lifecycle the transition touched).
				tr.Pending = append(tr.Pending, note)
			}
		}
		sort.Slice(tr.Because, func(a, b int) bool { return tr.Because[a].Index < tr.Because[b].Index })
		sort.Slice(tr.Pending, func(a, b int) bool { return tr.Pending[a].Index < tr.Pending[b].Index })
		for _, n := range tr.Because {
			explained[n.Index] = true
		}
		explained[i] = true
		rep.Transitions = append(rep.Transitions, tr)
	}
	return rep
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
	var b strings.Builder
	fmt.Fprintf(&b, "explanation for peer %s\n", rep.Peer)
	for _, tr := range rep.Transitions {
		who := string(tr.Event.Peer)
		if tr.Event.Peer != rep.Peer {
			who = "ω (" + who + ")"
		}
		fmt.Fprintf(&b, "observed #%d %s by %s: %s\n", tr.Index, tr.Event.Rule, who, strings.Join(tr.Event.Changes, "; "))
		for _, n := range tr.Because {
			vis := "invisible"
			if n.Visible {
				vis = "visible"
			}
			fmt.Fprintf(&b, "    because #%d %s by %s (%s): %s\n", n.Index, n.Rule, n.Peer, vis, strings.Join(n.Changes, "; "))
		}
		for _, n := range tr.Pending {
			fmt.Fprintf(&b, "    later #%d %s by %s: %s\n", n.Index, n.Rule, n.Peer, strings.Join(n.Changes, "; "))
		}
	}
	return b.String()
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
