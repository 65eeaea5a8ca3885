package design

import (
	"fmt"
	"sort"
	"time"

	"collabwf/internal/program"
	"collabwf/internal/schema"
)

// Guard is the filter mode of Remark 6.9, standing in at run time for the
// rewritten program Pᵗ of Theorem 6.7: it admits an event only if the run
// stays transparent and h-bounded for every guarded peer, so CheckRun finds
// no violation in any prefix it admits (a bare Monitor is the alert mode).
// The caller fires an event on the run, asks Check, then either Commits the
// event or truncates the run: a rejected event touches no monitor.
type Guard struct {
	run      *program.Run
	mons     []*Monitor // sorted by peer: Check reports the first violated
	admitted int
}

// NewGuard guards the peers of budgets (peer → step budget h) on r,
// admitting the events already in r as they are: a recovered run was
// admitted by the guard that wrote it.
func NewGuard(r *program.Run, budgets map[schema.Peer]int) *Guard {
	g := &Guard{run: r, admitted: r.Len()}
	for p, h := range budgets {
		g.mons = append(g.mons, NewMonitor(r, p, h))
	}
	sort.Slice(g.mons, func(i, j int) bool { return g.mons[i].peer < g.mons[j].peer })
	return g
}

// Peers returns the guarded peers in check order.
func (g *Guard) Peers() []schema.Peer {
	out := make([]schema.Peer, len(g.mons))
	for k, m := range g.mons {
		out[k] = m.peer
	}
	return out
}

// Budgets returns the guarded peers with their step budgets (a copy).
func (g *Guard) Budgets() map[schema.Peer]int {
	out := make(map[schema.Peer]int, len(g.mons))
	for _, m := range g.mons {
		out[m.peer] = m.h
	}
	return out
}

// Check tests the run's newest event, the only one not yet committed,
// against every guarded peer in order without changing any monitor. It
// returns the first peer the event would violate and the reason, or ok.
// Each per-peer check is attributed to the guard series (wf_guard_*) of the
// run's profiler, when it has one.
func (g *Guard) Check() (peer schema.Peer, reason string, ok bool) {
	i := g.run.Len() - 1
	if i != g.admitted {
		panic(fmt.Sprintf("design: Guard.Check on a run of %d events, %d admitted", i+1, g.admitted))
	}
	e := g.run.Event(i)
	p := g.run.Profiler().Profiler()
	for _, m := range g.mons {
		var start time.Time
		if p.Enabled() {
			start = time.Now()
		}
		// Exactly the events processOne records as violations fail.
		ok, reason = true, ""
		if g.run.VisibleAt(i, m.peer) {
			ok, _, reason = m.eventStatus(i, e)
		}
		if p.Enabled() {
			p.GuardCheck(string(m.peer), time.Since(start).Nanoseconds(), !ok)
		}
		if !ok {
			return m.peer, reason, false
		}
	}
	return "", "", true
}

// Commit admits the run's newest event, advancing every monitor by it.
func (g *Guard) Commit() {
	g.admitted++
	for _, m := range g.mons {
		m.Sync()
	}
}

// Truncate(n) follows the run's own Truncate(n). It is a no-op when no
// admitted event was dropped — the case of a rejected event — and
// otherwise, as when the run sheds events that failed to become durable,
// rebuilds the monitors over the n events left.
func (g *Guard) Truncate(n int) {
	if n >= g.admitted {
		return
	}
	for k, m := range g.mons {
		g.mons[k] = NewMonitor(g.run, m.peer, m.h)
	}
	g.admitted = n
}
