package main

import "regexp"

// metricDef describes one reported metric. bound (end-to-end only) is the
// share of the baseline median by which it may worsen before a change
// counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics, reported by every workload with tracing
// off. Throughput, latency percentiles and recovery_s are reported as
// detail instead: on a shared 2-vCPU host the speed of the CPU itself
// drifts by a fifth over a minute, so their run-to-run spread reaches the
// largest bound a gate may have (README, "Measurement noise").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// setup_s is judged by its median alone, its change taken relative to at
// least setupFloorS. Its spread across runs is wider than any bound on a
// shared host (README, "Measurement noise"), and on an empty data dir,
// ready in 5-7 ms, a millisecond of scheduling would otherwise read as
// a 20% regression.
const (
	setupMetric = "setup_s"
	setupFloorS = 0.01
)

// perLayer are reported by a traced run (--trace 1). A layer a workload
// leaves idle reports 0 (for example the WAL under crowd-read).
var perLayer = []metricDef{
	{Name: "client.transport_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.http_submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.http_read_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.resp_kb_per_read", Unit: "KB", Better: "lower"},
	{Name: "server.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.commit_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.submit_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.accept_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.run_create_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.run_archive_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.rss_kb_per_archived_run", Unit: "KB", Better: "lower"},
	{Name: "program.append_us_p50", Unit: "us", Better: "lower"},
	{Name: "program.append_us_first_decile", Unit: "us", Better: "lower"},
	{Name: "program.append_us_last_decile", Unit: "us", Better: "lower"},
	{Name: "schema.view_render_ms", Unit: "ms", Better: "lower"},
	{Name: "schema.view_kb", Unit: "KB", Better: "lower"},
	{Name: "core.sync_us_first_decile", Unit: "us", Better: "lower"},
	{Name: "core.sync_us_last_decile", Unit: "us", Better: "lower"},
	{Name: "core.freeze_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.report_ms", Unit: "ms", Better: "lower"},
	{Name: "core.explain_event_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.fsyncs_per_event", Unit: "1/event", Better: "lower"},
	{Name: "wal.batch_size_mean", Unit: "events", Better: "higher"},
	{Name: "wal.fsync_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "wal.snapshots_per_1k_events", Unit: "1/1k-events", Better: "lower"},
	{Name: "wal.snapshot_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "wal.snapshot_kb_last", Unit: "KB", Better: "lower"},
	{Name: "wal.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "wal.recovery_s", Unit: "s", Better: "lower"},
	{Name: "wal.replayed_records", Unit: "count", Better: "lower"},
	{Name: "declog.records_per_event", Unit: "1/event", Better: "lower"},
	{Name: "declog.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "declog.dropped", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles_per_1k_events", Unit: "1/1k-events", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_alloc_mb_end", Unit: "MB", Better: "lower"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "obs.spans_dropped", Unit: "count", Better: "lower"},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// metric is one reported value with the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metrics collects named values.
type metrics struct {
	vals map[string]metric
}

func newMetrics() *metrics { return &metrics{vals: map[string]metric{}} }

func (m *metrics) set(name, unit string, v float64, n int) {
	m.vals[name] = metric{Value: v, Unit: unit, N: n}
}

// pct sets name to the p-th percentile of xs (ms), leaving out an empty
// sample and a tail (p > 50) with fewer than minBeyond samples beyond it.
func (m *metrics) pct(name string, xs []float64, p float64) {
	f := percentile
	if p > 50 {
		f = tailPercentile
	}
	if v, err := f(xs, p); err == nil {
		m.set(name, "ms", v, len(xs))
	}
}

// p50 is the median of xs, or 0 for a layer the workload left idle.
func p50(xs []float64) float64 {
	v, err := percentile(xs, 50)
	if err != nil {
		return 0
	}
	return v
}

// durations returns the latencies (ms) of the calls of the given kinds
// (all calls when no kind is given).
func durations(calls []call, kinds ...string) []float64 {
	want := map[string]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	var out []float64
	for _, c := range calls {
		if len(kinds) == 0 || want[c.kind] {
			out = append(out, ms(c.dur))
		}
	}
	return out
}

// endToEndMetrics are the gated metrics of a pass: the median set-up time
// and the median of the rounds' peak resident set.
func endToEndMetrics(setup []float64, st *passStats) *metrics {
	m := newMetrics()
	m.set("setup_s", "s", median(setup), len(setup))
	m.set("peak_rss_mb", "MB", median(st.rss), len(st.rss))
	return m
}

// detailMetrics are printed and saved, not gated: completed operations per
// second of round time, the percentiles of all operations, recovery_s,
// and a breakdown by operation kind (not every workload has every kind).
func detailMetrics(o *outcome) *metrics {
	st := o.untraced
	m := newMetrics()
	secs := st.elapsed.Seconds()
	m.set("ops_per_s", "1/s", st.opsPerSec(), st.completed())
	m.set("recovery_s", "s", median(o.recovery), len(o.recovery))
	kinds := []struct {
		name  string
		kinds []string
		tail  bool
	}{
		{"op", nil, true},
		{"submit", []string{opSubmit}, true},
		{"read", []string{opView, opTransitions}, true},
		{"explain", []string{opExplain}, true},
		{"run_create", []string{opCreate}, false},
		{"run_archive", []string{opArchive}, false},
	}
	for _, k := range kinds {
		xs := durations(st.calls, k.kinds...)
		m.pct(k.name+"_p50_ms", xs, 50)
		if k.tail {
			m.pct(k.name+"_p90_ms", xs, 90)
			m.pct(k.name+"_p99_ms", xs, 99)
		}
	}
	if n := len(durations(st.calls, opSubmit)); n > 0 {
		m.set("events_per_s", "1/s", float64(n)/secs, n)
	}
	if n := len(durations(st.calls, opView, opTransitions, opExplain)); n > 0 {
		m.set("reads_per_s", "1/s", float64(n)/secs, n)
	}
	m.set("error_rate", "ratio", ratio(float64(st.failed), float64(len(st.calls))), len(st.calls))
	return m
}

// layerMetrics are the per-layer metrics of a traced run.
func layerMetrics(o *outcome) *metrics {
	st, rp := o.traced, o.replay
	d := st.delta
	m := newMetrics()
	put := func(name string, v float64, n int) {
		for _, def := range perLayer {
			if def.Name == name {
				m.set(name, def.Unit, v, n)
				return
			}
		}
		panic("undeclared per-layer metric " + name)
	}
	sp := &st.spans
	put("client.transport_ms_p50", p50(sp.transportMS), len(sp.transportMS))
	put("server.http_submit_ms_p50", p50(sp.httpSubmitMS), len(sp.httpSubmitMS))
	put("server.http_read_ms_p50", p50(sp.httpReadMS), len(sp.httpReadMS))
	var readBytes []float64
	for _, c := range st.calls {
		if c.kind == opView || c.kind == opTransitions {
			readBytes = append(readBytes, float64(c.bytes)/1024)
		}
	}
	put("server.resp_kb_per_read", mean(readBytes), len(readBytes))
	put("server.submit_ms_p50", p50(sp.submitMS), len(sp.submitMS))
	put("server.commit_wait_ms_p50", p50(sp.commitWaitMS), len(sp.commitWaitMS))
	put("server.submit_self_ms_p50", p50(sp.submitSelfMS), len(sp.submitSelfMS))
	acc, rej := d["wf_submissions_accepted_total"], d["wf_submissions_rejected_total"]
	accept := 1.0
	if acc+rej > 0 {
		accept = acc / (acc + rej)
	}
	put("server.accept_ratio", accept, int(acc+rej))
	put("server.run_create_ms_p50", p50(rp.createMS), len(rp.createMS))
	put("server.run_archive_ms_p50", p50(rp.archiveMS), len(rp.archiveMS))
	put("server.rss_kb_per_archived_run", ratio(st.rssGrowMB*1024, float64(st.archived)), st.archived)

	first, last := decileMeans(rp.appendUS)
	put("program.append_us_p50", p50(rp.appendUS), len(rp.appendUS))
	put("program.append_us_first_decile", first, len(rp.appendUS))
	put("program.append_us_last_decile", last, len(rp.appendUS))
	put("schema.view_render_ms", p50(rp.viewMS), len(rp.viewMS))
	put("schema.view_kb", p50(rp.viewKB), len(rp.viewKB))
	first, last = decileMeans(rp.syncUS)
	put("core.sync_us_first_decile", first, len(rp.syncUS))
	put("core.sync_us_last_decile", last, len(rp.syncUS))
	put("core.freeze_us_p50", p50(rp.freezeUS), len(rp.freezeUS))
	put("core.report_ms", p50(rp.reportMS), len(rp.reportMS))
	put("core.explain_event_us_p50", p50(rp.explainUS), len(rp.explainUS))

	fsyncs := d["wf_wal_fsync_total"]
	put("wal.fsyncs_per_event", ratio(fsyncs, acc), int(fsyncs))
	put("wal.batch_size_mean", ratio(d["wf_wal_group_commit_batch_size_sum"], d["wf_wal_group_commit_batch_size_count"]),
		int(d["wf_wal_group_commit_batch_size_count"]))
	put("wal.fsync_ms_mean", 1000*ratio(d["wf_wal_fsync_duration_seconds_sum"], d["wf_wal_fsync_duration_seconds_count"]),
		int(d["wf_wal_fsync_duration_seconds_count"]))
	snaps := d["wf_wal_snapshots_total"]
	put("wal.snapshots_per_1k_events", 1000*ratio(snaps, acc), int(snaps))
	put("wal.snapshot_ms_mean", 1000*ratio(d["wf_wal_snapshot_duration_seconds_sum"], d["wf_wal_snapshot_duration_seconds_count"]),
		int(d["wf_wal_snapshot_duration_seconds_count"]))
	put("wal.snapshot_kb_last", st.last["wf_wal_snapshot_bytes"]/1024, 1)
	put("wal.bytes_per_event", mean(sp.walBytes), len(sp.walBytes))
	put("wal.recovery_s", o.recovered["wf_coordinator_recovery_seconds"], 1)
	put("wal.replayed_records", o.recovered["wf_wal_replayed_records"], 1)

	emitted := d["wf_declog_emitted_total"]
	put("declog.records_per_event", ratio(emitted, acc), int(emitted))
	put("declog.bytes_per_event", ratio(st.declogB, st.declogRec)*ratio(emitted, acc), int(st.declogRec))
	put("declog.dropped", d["wf_declog_dropped_total"], 1)
	put("runtime.gc_cycles_per_1k_events", 1000*ratio(d["wf_go_gc_cycles_total"], acc), int(d["wf_go_gc_cycles_total"]))
	put("runtime.gc_pause_ms", d["wf_go_gc_pause_ns_total"]/1e6, int(d["wf_go_gc_cycles_total"]))
	put("runtime.heap_alloc_mb_end", st.last["wf_go_heap_alloc_bytes"]/(1<<20), 1)
	base, traced := o.untraced.opsPerSec(), st.opsPerSec()
	put("obs.trace_overhead_pct", 100*ratio(base-traced, base), st.rounds)
	put("obs.spans_dropped", float64(sp.dropped), len(st.trees))
	return m
}
