package server

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"collabwf/internal/data"
	"collabwf/internal/obs"
	"collabwf/internal/schema"
	"collabwf/internal/wal"
)

// archivedRun creates run id on m, drives one hiring episode through it,
// scrapes the registry so the run's gather hook and lazily created series
// exist, then archives it. watch, when non-nil, sees the coordinator first.
func archivedRun(t *testing.T, m *Manager, reg *obs.Registry, id string, watch func(*Coordinator)) {
	t.Helper()
	if err := m.CreateRun(id); err != nil {
		t.Fatal(err)
	}
	c, _ := m.Run(id)
	if watch != nil {
		watch(c)
	}
	res, err := c.Submit("hr", "clear", nil)
	if err != nil {
		t.Fatal(err)
	}
	cand := strings.TrimSuffix(strings.TrimPrefix(res.Updates[0], "+Cleared("), ")")
	x := map[string]data.Value{"x": data.Value(cand)}
	for _, s := range []struct{ peer, rule string }{{"cfo", "cfo_ok"}, {"ceo", "approve"}, {"hr", "hire"}} {
		if _, err := c.Submit(schema.Peer(s.peer), s.rule, x); err != nil {
			t.Fatalf("%s: %v", s.rule, err)
		}
	}
	if _, err := c.Submit("hr", "hire", map[string]data.Value{"x": "nobody"}); err == nil {
		t.Fatal("hire of an unapproved candidate must be rejected")
	}
	reg.Gather()
	if err := m.ArchiveRun(id); err != nil {
		t.Fatal(err)
	}
}

// seriesCount is the number of series the registry exports.
func seriesCount(reg *obs.Registry) int {
	n := 0
	for _, fs := range reg.Gather() {
		n += len(fs.Series)
	}
	return n
}

// Archiving a run removes everything it registered: the registry's gather
// hooks and series return exactly to their counts before the run was
// created.
func TestArchiveRunReleasesMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := newTestManager(t, ManagerConfig{Registry: reg})
	reg.Gather()
	hooks, series := reg.Hooks(), seriesCount(reg)

	if err := m.CreateRun("gone"); err != nil {
		t.Fatal(err)
	}
	if reg.Hooks() != hooks+1 || seriesCount(reg) <= series {
		t.Fatalf("a live run adds one hook and its series: hooks %d→%d, series %d→%d",
			hooks, reg.Hooks(), series, seriesCount(reg))
	}
	if err := m.ArchiveRun("gone"); err != nil {
		t.Fatal(err)
	}
	archivedRun(t, m, reg, "busy", nil)
	if got := reg.Hooks(); got != hooks {
		t.Errorf("gather hooks after archive = %d, want %d", got, hooks)
	}
	if got := seriesCount(reg); got != series {
		t.Errorf("series after archive = %d, want %d", got, series)
	}
	for _, fs := range reg.Gather() {
		for _, ss := range fs.Series {
			for _, l := range ss.Labels {
				if l.Name == "run" && l.Value != DefaultRun {
					t.Errorf("%s still exports {run=%q}", fs.Name, l.Value)
				}
			}
		}
	}
}

// The archived *Coordinator becomes unreachable, in memory and durable:
// nothing the manager, the registry or the WAL keeps points at it once
// ArchiveRun returns.
func TestArchivedCoordinatorIsCollected(t *testing.T) {
	for _, durable := range []bool{false, true} {
		cfg := ManagerConfig{Registry: obs.NewRegistry()}
		if durable {
			cfg.DataDir = t.TempDir()
			cfg.Durability = DurabilityConfig{Sync: wal.SyncAlways, Metrics: cfg.Registry}
		}
		m := newTestManager(t, cfg)
		collected := make(chan struct{})
		archivedRun(t, m, cfg.Registry, "gc", func(c *Coordinator) {
			runtime.SetFinalizer(c, func(*Coordinator) { close(collected) })
		})
		deadline := time.Now().Add(5 * time.Second)
		for done := false; !done; {
			runtime.GC()
			select {
			case <-collected:
				done = true
			default:
				if time.Now().After(deadline) {
					t.Fatalf("durable=%v: archived coordinator was never collected", durable)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
}
