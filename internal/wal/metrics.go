package wal

import (
	"time"

	"collabwf/internal/obs"
)

// walMetrics is the WAL/durability metric surface. Families are registered
// get-or-create, so several Logs (or a Log reopened across recovery) on one
// registry share series.
type walMetrics struct {
	appended      *obs.Counter
	appendErrors  *obs.Counter
	fsyncs        *obs.Counter
	fsyncErrors   *obs.Counter
	fsyncLatency  *obs.Histogram
	openSeconds   *obs.Gauge
	replayedRecs  *obs.Gauge
	tornBytes     *obs.Counter
	failpointTrip *obs.Counter
	batchSize     *obs.Histogram
	pendingRecs   *obs.Gauge
	corruptRecs   *obs.Counter
}

func newWALMetrics(reg *obs.Registry) *walMetrics {
	if reg == nil {
		return nil
	}
	return &walMetrics{
		appended: reg.Counter("wf_wal_records_appended_total",
			"Records durably appended to the WAL."),
		appendErrors: reg.Counter("wf_wal_append_errors_total",
			"Failed WAL appends (the event was rejected and truncated away)."),
		fsyncs: reg.Counter("wf_wal_fsync_total",
			"WAL fsync calls issued."),
		fsyncErrors: reg.Counter("wf_wal_fsync_errors_total",
			"WAL fsync calls that failed."),
		fsyncLatency: reg.Histogram("wf_wal_fsync_duration_seconds",
			"WAL fsync latency in seconds.", nil),
		openSeconds: reg.Gauge("wf_wal_open_seconds",
			"Wall time of the last Open (guard file load + log scan + torn-tail repair)."),
		replayedRecs: reg.Gauge("wf_wal_replayed_records",
			"Records found in the WAL tail at the last Open."),
		tornBytes: reg.Counter("wf_wal_torn_bytes_total",
			"Trailing bytes truncated as torn records at Open."),
		failpointTrip: reg.Counter("wf_wal_failpoint_trips_total",
			"Injected WAL faults that fired (tests and fault drills)."),
		batchSize: reg.Histogram("wf_wal_group_commit_batch_size",
			"Records per group-commit fsync batch.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128}),
		pendingRecs: reg.Gauge("wf_wal_pending_records",
			"Buffered records awaiting their group fsync (commit-queue depth)."),
		corruptRecs: reg.Counter("wf_wal_corrupt_records_total",
			"Complete-but-corrupt WAL records detected at Open (checksum or parse failure)."),
	}
}

// Nil-safe recorders: an un-instrumented Log calls these on a nil receiver.

func (m *walMetrics) recordAppend(ok bool) {
	if m == nil {
		return
	}
	if ok {
		m.appended.Inc()
	} else {
		m.appendErrors.Inc()
	}
}

func (m *walMetrics) recordFsync(d time.Duration, err error) {
	if m == nil {
		return
	}
	m.fsyncs.Inc()
	if err != nil {
		m.fsyncErrors.Inc()
		return
	}
	m.fsyncLatency.Observe(d.Seconds())
}

func (m *walMetrics) recordOpen(d time.Duration, replayed int, torn int64) {
	if m == nil {
		return
	}
	m.openSeconds.Set(d.Seconds())
	m.replayedRecs.Set(float64(replayed))
	m.tornBytes.Add(torn)
}

func (m *walMetrics) recordFailpoint() {
	if m == nil {
		return
	}
	m.failpointTrip.Inc()
}

func (m *walMetrics) recordGroupCommit(n int) {
	if m == nil {
		return
	}
	m.batchSize.Observe(float64(n))
	m.appended.Add(int64(n))
}

func (m *walMetrics) recordPending(n int) {
	if m == nil {
		return
	}
	m.pendingRecs.Set(float64(n))
}

func (m *walMetrics) recordAppendErrors(n int) {
	if m == nil {
		return
	}
	m.appendErrors.Add(int64(n))
}

func (m *walMetrics) recordCorrupt() {
	if m == nil {
		return
	}
	m.corruptRecs.Inc()
}
