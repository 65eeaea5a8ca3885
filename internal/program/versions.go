package program

import "collabwf/internal/schema"

// keepEvery spaces the instance versions a released run keeps: step i keeps
// I_i when (i+1) is a multiple of keepEvery, so any other instance is at
// most keepEvery-1 redone steps away from a kept one. A run is I₀ ⊢e₁ I₁
// ⊢e₂ …, each Iᵢ fixed by Iᵢ₋₁ and the recorded effects of eᵢ, so the
// versions in between hold nothing the steps do not.
const keepEvery = 32

// keeps reports whether released step i keeps its instance version.
func keeps(i int) bool { return (i+1)%keepEvery == 0 }

// Release marks the first n steps released: no Truncate may drop them
// again. Each newly released step keeps its instance version only when
// keeps says so; the others are dropped, and reads rebuild them from the
// recorded effects (InstanceAt, Cursor). The coordinator releases a prefix
// just before it publishes it to readers, so the only Step field Release
// writes belongs to steps no published reader holds yet. n below the
// released length is a no-op.
func (r *Run) Release(n int) {
	r.settle()
	if n <= r.released {
		return
	}
	if n == len(r.Steps) {
		r.base = r.cur
	} else {
		r.base = r.Steps[n-1].Instance
	}
	for i := r.released; i < n; i++ {
		if !keeps(i) {
			r.Steps[i].Instance = nil
		}
	}
	r.released = n
}

// Replay is Append for a run rebuilt from its record, such as a recovery
// replaying its log: it checks the same run conditions, then releases the
// whole run through e. The event's updates are written into one
// transient current instance, in place on the nodes earlier replays
// allocated, and the step keeps a frozen version only when keeps says so,
// so a long replay path-copies each tree path once per keepEvery events
// instead of once per event. The transient is settled into a persistent
// instance by the next call of any other method. On an error the run is
// left as it was.
func (r *Run) Replay(e *Event) error {
	if r.released < len(r.Steps) {
		r.Release(len(r.Steps))
	}
	if !r.cur.IsTransient() {
		r.cur = r.cur.Transient()
	}
	if err := r.check(e); err != nil {
		return err
	}
	effects, err := applyTo(r.cur, e, r.Prog.Schema, r.conds())
	if err != nil {
		// The failed event may have written some of its updates: roll a
		// fresh transient up to the last step.
		r.cur = NewCursor(r.Initial, r.Steps, nil).Version(len(r.Steps) - 1).Transient()
		return err
	}
	r.record(e)
	st := Step{Event: e, Effects: effects}
	if keeps(len(r.Steps)) {
		st.Instance = r.cur.Clone()
	}
	r.Steps = append(r.Steps, st)
	r.released = len(r.Steps)
	r.prof.RuleFired(e.Rule.Name, string(e.Peer()))
	return nil
}

// settle ends an in-place replay: the transient current instance becomes
// the persistent I of the last step, which is also the released prefix's
// last instance.
func (r *Run) settle() {
	if r.cur.IsTransient() {
		r.cur = r.cur.Clone()
		r.base = r.cur
	}
}

// Cursor returns a cursor over the run's steps as they stand; appending to
// or truncating the run invalidates it.
func (r *Run) Cursor() *Cursor {
	r.settle()
	return NewCursor(r.Initial, r.Steps, r.cur)
}

// Cursor reads the instances of a run prefix: a step list from an initial
// instance, with the last step's instance given. It answers a kept version
// as is, and any other by rolling one private transient instance forward,
// redoing the steps' recorded effects from the nearest kept version at or
// before it — or from where its previous answer left the transient, when
// that is nearer. A series of reads in ascending order thus redoes each
// step at most once.
type Cursor struct {
	initial, last *schema.Instance
	steps         []Step
	in            *schema.Instance // transient at I_at, nil before the first roll
	at            int
}

// NewCursor returns a cursor over steps, the first len(steps) steps of a
// run from initial, whose last step produced last (nil: rebuild it too).
// The steps' kept versions and last are only read.
func NewCursor(initial *schema.Instance, steps []Step, last *schema.Instance) *Cursor {
	return &Cursor{initial: initial, last: last, steps: steps}
}

// At returns I_i; At(-1) is the initial instance. A rebuilt instance is the
// cursor's own transient, valid until the next call: read it, do not keep
// it (Version keeps).
func (c *Cursor) At(i int) *schema.Instance {
	switch {
	case i < 0:
		return c.initial
	case i == len(c.steps)-1 && c.last != nil:
		return c.last
	case c.steps[i].Instance != nil:
		return c.steps[i].Instance
	}
	// The nearest kept version before i, or -1 for the initial instance.
	j := i - 1
	for j >= 0 && c.steps[j].Instance == nil {
		j--
	}
	if c.in == nil || c.at < j || c.at > i {
		if j < 0 {
			c.in = c.initial.Transient()
		} else {
			c.in = c.steps[j].Instance.Transient()
		}
		c.at = j
	}
	for c.at < i {
		c.at++
		c.steps[c.at].redo(c.in)
	}
	return c.in
}

// Version is At returning an instance that stays valid: a rebuilt one is
// frozen into a persistent version.
func (c *Cursor) Version(i int) *schema.Instance {
	in := c.At(i)
	if in == c.in {
		in = in.Clone()
	}
	return in
}
