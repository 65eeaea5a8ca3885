// Package trace serializes runs so that explanation tooling can operate on
// recorded executions: a trace stores the event sequence (rule names and
// valuations) together with the initial instance; replaying it against the
// program reconstructs the full run, including instances, effects and
// visibility. Traces are JSON, suitable for logs and cross-process
// hand-off.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"collabwf/internal/data"
	"collabwf/internal/program"
	"collabwf/internal/query"
	"collabwf/internal/schema"
)

// Trace is the serialized form of a run.
type Trace struct {
	// Workflow is an optional name identifying the program the trace
	// belongs to.
	Workflow string `json:"workflow,omitempty"`
	// Initial holds the non-empty relations of the initial instance.
	Initial []Fact `json:"initial,omitempty"`
	// Events is the run's event sequence.
	Events []EventRecord `json:"events"`
}

// Fact is one tuple of the initial instance.
type Fact struct {
	Rel   string   `json:"rel"`
	Tuple []string `json:"tuple"`
}

// EventRecord is one event: the rule and its valuation. ⊥ is encoded as
// the JSON string "⊥" (no legal constant collides: values are compared
// verbatim, and ⊥ renders the same way everywhere in the library).
type EventRecord struct {
	Rule      string            `json:"rule"`
	Valuation map[string]string `json:"valuation"`
}

// EncodeEvent serializes one event in the trace wire form. A WAL record
// holds the same bytes, written from the event's slots.
func EncodeEvent(e *program.Event) EventRecord {
	vars := e.Rule.Layout().Vars
	rec := EventRecord{Rule: e.Rule.Name, Valuation: make(map[string]string, len(vars))}
	for i, v := range e.Vals() {
		rec.Valuation[vars[i]] = string(v)
	}
	return rec
}

// Decode converts the record back into an event of program p. A name of
// the valuation that is no variable of the rule is dropped.
func (rec EventRecord) Decode(p *program.Program) (*program.Event, error) {
	val := make(query.Valuation, len(rec.Valuation))
	for k, v := range rec.Valuation {
		val[k] = data.Value(v)
	}
	return DecodeEvent(p, rec.Rule, val)
}

// DecodeEvent returns the event of program p that fires the named rule
// under val, copied into the rule's slots: recovery hands over the
// valuation of a record its decoder could not lay out in slots itself.
func DecodeEvent(p *program.Program, rule string, val query.Valuation) (*program.Event, error) {
	rl := p.Rule(rule)
	if rl == nil {
		return nil, fmt.Errorf("trace: unknown rule %q", rule)
	}
	return program.NewEvent(rl, val)
}

// FromRun extracts a trace from a run.
func FromRun(name string, r *program.Run) *Trace {
	return FromEvents(name, r.Initial, r.Events())
}

// FromEvents builds a trace from an initial instance and an event sequence
// directly, without a *Run — for callers holding an immutable captured
// prefix (the coordinator's read snapshots) rather than the live run.
func FromEvents(name string, initial *schema.Instance, events []*program.Event) *Trace {
	t := &Trace{Workflow: name}
	for _, rel := range initial.DB().Names() {
		for _, tup := range initial.Tuples(rel) {
			f := Fact{Rel: rel, Tuple: make([]string, len(tup))}
			for i, v := range tup {
				f.Tuple[i] = string(v)
			}
			t.Initial = append(t.Initial, f)
		}
	}
	for _, e := range events {
		t.Events = append(t.Events, EncodeEvent(e))
	}
	return t
}

// Replay reconstructs the run described by the trace against the program.
// Every run condition (body satisfaction, applicability, freshness) is
// re-checked, so a tampered trace is rejected rather than replayed.
func (t *Trace) Replay(p *program.Program) (*program.Run, error) {
	initial := schema.NewInstance(p.Schema.DB)
	for _, f := range t.Initial {
		tup := make(data.Tuple, len(f.Tuple))
		for i, v := range f.Tuple {
			tup[i] = data.Value(v)
		}
		if err := initial.Put(f.Rel, tup); err != nil {
			return nil, fmt.Errorf("trace: initial fact %v: %w", f, err)
		}
	}
	r := program.NewRunFrom(p, initial)
	if err := t.ApplyTo(r); err != nil {
		return nil, err
	}
	return r, nil
}

// ApplyTo appends the trace's events to an existing run, re-checking every
// run condition. WAL recovery uses this to replay a tail of records onto a
// snapshot-restored run.
func (t *Trace) ApplyTo(r *program.Run) error {
	r.Grow(len(t.Events))
	for i, rec := range t.Events {
		e, err := rec.Decode(r.Prog)
		if err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
		if err := r.Append(e); err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
	}
	return nil
}

// Write encodes the trace as indented JSON.
func (t *Trace) Write(w io.Writer) error {
	// Deterministic output: sort initial facts.
	sort.Slice(t.Initial, func(i, j int) bool {
		if t.Initial[i].Rel != t.Initial[j].Rel {
			return t.Initial[i].Rel < t.Initial[j].Rel
		}
		return fmt.Sprint(t.Initial[i].Tuple) < fmt.Sprint(t.Initial[j].Tuple)
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// Read decodes a trace from JSON.
func Read(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return &t, nil
}
