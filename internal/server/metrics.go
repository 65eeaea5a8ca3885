package server

import (
	"context"
	"errors"
	"time"

	"collabwf/internal/obs"
	"collabwf/internal/transparency"
)

// Metrics is the coordinator/HTTP metric surface, registered on an
// obs.Registry. All families use the wf_ prefix; the full catalogue is
// documented in README.md ("Observability"). Registration is get-or-create,
// so wiring two coordinators (or re-wiring after recovery) onto one
// registry shares series instead of colliding.
//
// Every coordinator/read/decider family carries a leading "run" label, so
// no shard's counters are invisible or conflated; a standalone coordinator
// is just the "default" run. The HTTP families are shared (unlabeled):
// requests are counted where they arrive, before run routing.
type Metrics struct {
	reg *obs.Registry
	// run is the "run" label value of the coordinator families. Scalar
	// families are bound to the run's series at construction; vec families
	// prepend it via lv at the call sites.
	run string
	// unhook removes the snapshot-age gather hook (nil when none was
	// registered).
	unhook func()

	// HTTP layer.
	httpRequests  obs.CounterVec // route, code (status class: 2xx…5xx)
	httpInFlight  *obs.Gauge
	httpLatency   obs.HistogramVec // route
	admissionShed *obs.Counter

	// Coordinator.
	submitAccepted *obs.Counter
	submitRejected obs.CounterVec // reason
	rollbacks      *obs.Counter
	idemReplays    *obs.Counter
	runEvents      *obs.Gauge
	recoverySecs   *obs.Gauge
	recoveredEvs   *obs.Gauge

	// Read path: snapshot reads served and snapshot churn.
	reads     *obs.Counter
	snapSwaps *obs.Counter
	snapAge   *obs.Gauge

	// Decider search (Certify): the transparency.Stats counters surfaced
	// as registry families.
	deciderRuns    obs.CounterVec // check, outcome
	deciderNodes   *obs.Counter
	deciderHits    *obs.Counter
	deciderMisses  *obs.Counter
	deciderStates  *obs.Counter
	deciderCancels *obs.Counter
	deciderWorkers *obs.Gauge
}

// NewRunMetrics registers (or retrieves) the server metric families on reg
// with every coordinator/read/decider family carrying a leading "run" label
// bound to the given run id. Fleet totals are sums over the run label.
func NewRunMetrics(reg *obs.Registry, run string) *Metrics {
	if run == "" {
		panic("server: NewRunMetrics requires a run id")
	}
	// Scalar families become single-label vecs bound to this run's series
	// here, so every consumer keeps its *Counter/*Gauge view; multi-label
	// vecs get the "run" label prepended (and lv at call sites).
	counter := func(name, help string) *obs.Counter {
		return reg.CounterVec(name, help, "run").With(run)
	}
	gauge := func(name, help string) *obs.Gauge {
		return reg.GaugeVec(name, help, "run").With(run)
	}
	counterVec := func(name, help string, labels ...string) obs.CounterVec {
		return reg.CounterVec(name, help, append([]string{"run"}, labels...)...)
	}
	return &Metrics{
		reg: reg,
		run: run,
		httpRequests: reg.CounterVec("wf_http_requests_total",
			"HTTP requests served, by route and status class.", "route", "code"),
		httpInFlight: reg.Gauge("wf_http_in_flight_requests",
			"HTTP requests currently being served."),
		httpLatency: reg.HistogramVec("wf_http_request_duration_seconds",
			"HTTP request latency in seconds, by route.", nil, "route"),
		admissionShed: reg.Counter("wf_admission_shed_total",
			"Submissions shed with 429 by the in-flight admission cap."),

		submitAccepted: counter("wf_submissions_accepted_total",
			"Submissions accepted into the global run."),
		submitRejected: counterVec("wf_submissions_rejected_total",
			"Submissions rejected, by reason (closed, unknown_rule, wrong_peer, not_applicable, guard, wal).", "reason"),
		rollbacks: counter("wf_rollbacks_total",
			"Run rollbacks after a rejected submission (guard violation or WAL failure)."),
		idemReplays: counter("wf_idempotent_replays_total",
			"Retried submissions answered from the idempotency window without re-applying."),
		runEvents: gauge("wf_run_events",
			"Events accepted into the global run so far."),
		recoverySecs: gauge("wf_coordinator_recovery_seconds",
			"Wall time of the last WAL recovery."),
		recoveredEvs: gauge("wf_coordinator_recovered_events",
			"Events reconstructed by the last recovery."),

		reads: counter("wf_read_lockfree_total",
			"Reads (view, explain, scenario, transitions, trace) served from the published snapshot without the coordinator lock."),
		snapSwaps: counter("wf_snapshot_swaps_total",
			"Read-snapshot publications, one per release batch (the snapshot published at construction or recovery is not counted)."),
		snapAge: gauge("wf_snapshot_age_seconds",
			"Age of the published read snapshot at scrape time."),

		deciderRuns: counterVec("wf_decider_runs_total",
			"Decider invocations via Certify, by check (bounded, transparent) and outcome (ok, violation, cancelled, error).", "check", "outcome"),
		deciderNodes: counter("wf_decider_nodes_total",
			"Search-tree nodes expanded by the deciders."),
		deciderHits: counter("wf_decider_cache_hits_total",
			"Candidate-memo cache hits in the decider search."),
		deciderMisses: counter("wf_decider_cache_misses_total",
			"Candidate-memo cache misses in the decider search."),
		deciderStates: counter("wf_decider_states_total",
			"Distinct canonical states kept by the instance enumeration."),
		deciderCancels: counter("wf_decider_cancellations_total",
			"Decider searches abandoned by context cancellation."),
		deciderWorkers: gauge("wf_decider_workers",
			"Worker-pool width of the last decider search."),
	}
}

// Close detaches the run from its registry: the snapshot-age gather hook
// (which captures the coordinator) is removed and every
// {run=…} series of the run is deleted, so an archived run is neither
// sampled nor exported and its coordinator can be collected. Call it once
// the coordinator has stopped serving. Nil-safe.
func (m *Metrics) Close() {
	if m == nil {
		return
	}
	if m.unhook != nil {
		m.unhook()
	}
	m.reg.DeleteSeries("run", m.run)
}

// lv prepends the run label value, so multi-label vec call sites write
// m.x.With(m.lv(...)...).
func (m *Metrics) lv(values ...string) []string {
	return append([]string{m.run}, values...)
}

// Registry returns the backing registry (for /metrics).
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// shed records one submission shed by the admission cap. Nil-safe.
func (m *Metrics) shed() {
	if m != nil {
		m.admissionShed.Inc()
	}
}

// rolledBack records one rollback. Nil-safe.
func (m *Metrics) rolledBack() {
	if m != nil {
		m.rollbacks.Inc()
	}
}

// read records one snapshot read. Nil-safe.
func (m *Metrics) read() {
	if m != nil {
		m.reads.Inc()
	}
}

// snapshotSwapped records one read-snapshot publication. Nil-safe.
func (m *Metrics) snapshotSwapped() {
	if m != nil {
		m.snapSwaps.Inc()
	}
}

// foldSearch folds a decider search-effort delta into the registry.
// Nil-safe.
func (m *Metrics) foldSearch(d transparency.Stats) {
	if m == nil {
		return
	}
	m.deciderNodes.Add(d.Nodes)
	m.deciderHits.Add(d.CacheHits)
	m.deciderMisses.Add(d.CacheMisses)
	m.deciderStates.Add(d.States)
	m.deciderCancels.Add(d.Cancelled)
	if d.Workers > 0 {
		m.deciderWorkers.Set(float64(d.Workers))
	}
}

// deciderOutcome records one decider invocation. Nil-safe.
func (m *Metrics) deciderOutcome(check string, violation bool, err error) {
	if m == nil {
		return
	}
	outcome := "ok"
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		outcome = "cancelled"
	case err != nil:
		outcome = "error"
	case violation:
		outcome = "violation"
	}
	m.deciderRuns.With(m.lv(check, outcome)...).Inc()
}

// instrument registers the coordinator's families on reg under the run
// label, during construction: the gauges are seeded from the constructed
// state, so a recovered run is visible at once, with recovery the
// construction's wall time. The publication that construction made is not
// counted as a swap.
func (c *Coordinator) instrument(reg *obs.Registry, run string, recovery time.Duration) {
	m := NewRunMetrics(reg, run)
	// The snapshot-age gauge is sampled at scrape time (ages advance whether
	// or not anything is published; a periodic setter would always be stale).
	m.unhook = m.reg.OnGather(func() {
		if _, age, _ := c.SnapshotInfo(); age > 0 {
			m.snapAge.Set(age.Seconds())
		}
	})
	m.runEvents.Set(float64(c.observable))
	if c.log != nil {
		m.recoverySecs.Set(recovery.Seconds())
		m.recoveredEvs.Set(float64(c.observable))
	}
	c.metrics = m
}
