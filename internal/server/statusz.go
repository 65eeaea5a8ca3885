package server

import (
	"net/http"
	"time"

	"collabwf/internal/declog"
	"collabwf/internal/obs"
)

// Statusz is the JSON document served on /statusz: a one-page operator
// summary of the facts no other surface carries — build, decision-log
// sink, snapshot sequence, readiness and WAL stall, guards, and the fleet
// block. Counters live on /metrics and the rule-cost ranking on
// /debug/rules; /statusz repeats neither.
type Statusz struct {
	Workflow string `json:"workflow"`
	// Run is the id of the workflow instance this page describes (empty in
	// the single-run server; "default" and friends under the Manager).
	Run           string  `json:"run,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Events        int     `json:"events"`
	Durable       bool    `json:"durable"`
	// CommitQueueDepth is the group-commit backlog: records buffered in the
	// WAL and awaiting their batch fsync (0 for in-memory coordinators).
	CommitQueueDepth int    `json:"commit_queue_depth"`
	Ready            string `json:"ready"` // "ok" or the readiness error
	// WALStalled carries the failed-group-sync error while the WAL refuses
	// appends (pending realign + Resume); "" when healthy.
	WALStalled string         `json:"wal_stalled,omitempty"`
	Guards     map[string]int `json:"guards,omitempty"`
	// Snapshot describes the published lock-free read snapshot: sequence
	// number (publications so far), age, and covered events.
	Snapshot SnapshotStatus `json:"snapshot"`
	// Build identifies the running binary (toolchain, module version, VCS
	// revision) — the same identity wf_build_info exposes to scrapes.
	Build obs.BuildInfo `json:"build"`
	// DecisionLog reports the audit pipeline (nil when none is attached):
	// sink, queue depth, and the emitted/dropped/exported tallies.
	DecisionLog *declog.Status `json:"decision_log,omitempty"`
	// Runs is the fleet block (Manager statusz only): one row per active
	// run plus the aggregate counts, so no shard is invisible.
	Runs *RunsStatusz `json:"runs,omitempty"`
}

// RunsStatusz is the Manager's fleet summary on /statusz.
type RunsStatusz struct {
	// Active counts the live shards (the default run included); Created and
	// Archived are lifetime tallies of the lifecycle API.
	Active   int `json:"active"`
	Created  int `json:"created"`
	Archived int `json:"archived"`
	// Events is the fleet-wide released-event total.
	Events int `json:"events"`
	// Runs lists the live shards sorted by id.
	Runs []RunStatus `json:"runs"`
}

// RunStatus is one shard's row in the fleet block — the per-run view of the
// gauges that a single-run /statusz reports globally (run length, commit
// queue depth, snapshot age).
type RunStatus struct {
	ID               string  `json:"id"`
	Workflow         string  `json:"workflow"`
	Events           int     `json:"events"`
	CommitQueueDepth int     `json:"commit_queue_depth"`
	SnapshotAge      float64 `json:"snapshot_age_seconds"`
	Ready            string  `json:"ready"`
	WALStalled       string  `json:"wal_stalled,omitempty"`
}

// SnapshotStatus is the /statusz read-snapshot report.
type SnapshotStatus struct {
	Seq        uint64  `json:"seq"`
	AgeSeconds float64 `json:"age_seconds"`
	Events     int     `json:"events"`
}

// StatuszHandler serves the operator summary for the coordinator.
func StatuszHandler(c *Coordinator) http.Handler {
	start := time.Now()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, statuszFor(c, start))
	})
}

// statuszFor assembles the operator summary document; the single-run
// handler serves it as-is, the Manager's fleet handler adds the runs block.
func statuszFor(c *Coordinator, start time.Time) Statusz {
	st := Statusz{
		Workflow:         c.Name(),
		Run:              c.RunID(),
		UptimeSeconds:    time.Since(start).Seconds(),
		Events:           c.Len(),
		Durable:          c.Durable(),
		CommitQueueDepth: c.CommitQueueDepth(),
		Ready:            "ok",
		WALStalled:       c.WALStalled(),
		Guards:           c.Guards(),
	}
	seq, age, events := c.SnapshotInfo()
	st.Snapshot = SnapshotStatus{Seq: seq, AgeSeconds: age.Seconds(), Events: events}
	st.Build = obs.ReadBuild()
	st.DecisionLog = c.dlog.Status()
	if err := c.Ready(); err != nil {
		st.Ready = err.Error()
	}
	return st
}

// runStatus condenses one shard into its fleet-block row.
func runStatus(id string, c *Coordinator) RunStatus {
	rs := RunStatus{
		ID:               id,
		Workflow:         c.Name(),
		Events:           c.Len(),
		CommitQueueDepth: c.CommitQueueDepth(),
		Ready:            "ok",
		WALStalled:       c.WALStalled(),
	}
	if _, age, _ := c.SnapshotInfo(); age > 0 {
		rs.SnapshotAge = age.Seconds()
	}
	if err := c.Ready(); err != nil {
		rs.Ready = err.Error()
	}
	return rs
}
