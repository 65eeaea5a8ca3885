package server

import (
	"context"
	"log/slog"

	"collabwf/internal/data"
	"collabwf/internal/declog"
	"collabwf/internal/obs"
)

// decide is the one exit of every coordinator decision. Every channel that
// reports the decision is derived from d alone, so they cannot disagree:
//
//   - a submission moves wf_submissions_accepted_total, the rejected
//     counter under its reason, or wf_idempotent_replays_total;
//   - sp carries the decision, reason and index, and a rejected, violation
//     or error verdict marks it failed with err;
//   - one "decision" log line, at Error for a WAL rejection, Info for a
//     guard rejection and Debug for everything else;
//   - the decision log, when configured, receives d stamped with the
//     workflow, run and trace id. Emission is fire-and-forget: Emit never
//     blocks (a full queue drops its oldest record), so the decision log
//     cannot backpressure the submission path.
//
// decide takes no lock: everything it reads is fixed at construction. It
// is called under mu on the submit path and without it by certify, explain
// and idempotent replays.
func (c *Coordinator) decide(ctx context.Context, sp *obs.Span, d declog.Decision, err error) {
	failed := d.Decision == declog.Rejected || d.Decision == declog.Violation || d.Decision == declog.Errored
	if m := c.metrics; m != nil && d.Kind == declog.KindSubmit {
		switch d.Decision {
		case declog.Accepted:
			m.submitAccepted.Inc()
		case declog.Rejected:
			m.submitRejected.With(m.lv(d.Reason)...).Inc()
		case declog.Replayed:
			m.idemReplays.Inc()
		}
	}
	if sp != nil {
		sp.SetAttr("decision", d.Decision)
		if d.Reason != "" {
			sp.SetAttr("reason", d.Reason)
		}
		if d.Index >= 0 {
			sp.SetAttr("index", d.Index)
		}
		if failed {
			sp.SetError(err)
		}
	}
	level := slog.LevelDebug
	switch {
	case d.Reason == "wal":
		level = slog.LevelError
	case d.Kind == declog.KindSubmit && d.Reason == "guard":
		level = slog.LevelInfo
	}
	if lg := c.logger; lg.Enabled(ctx, level) {
		attrs := []slog.Attr{slog.String("kind", d.Kind), slog.String("decision", d.Decision)}
		for _, kv := range [...][2]string{{"reason", d.Reason}, {"peer", d.Peer}, {"rule", d.Rule}, {"guarded", d.Guarded}} {
			if kv[1] != "" {
				attrs = append(attrs, slog.String(kv[0], kv[1]))
			}
		}
		if d.Index >= 0 {
			attrs = append(attrs, slog.Int("index", d.Index))
		}
		if failed && err != nil {
			attrs = append(attrs, slog.Any("error", err))
		}
		lg.LogAttrs(ctx, level, "decision", attrs...)
	}
	if l := c.dlog; l != nil {
		d.Workflow, d.Run, d.TraceID = c.name, c.runID, sp.TraceID()
		l.Emit(d)
	}
}

// encodeBindings renders request bindings in the trace wire encoding, for
// rejection records of events that never came to exist (not_applicable).
func encodeBindings(bindings map[string]data.Value) map[string]string {
	if len(bindings) == 0 {
		return nil
	}
	out := make(map[string]string, len(bindings))
	for k, v := range bindings {
		out[k] = string(v)
	}
	return out
}
