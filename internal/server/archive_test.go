package server

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

// A durable fleet never reuses an archived id: POST /runs answers 409, the
// archived run's log stays byte-identical, and a restart still serves
// nothing under the id. Reusing it would bring the old run back, and the
// archived marker would hide every event acknowledged after that from the
// next startup scan.
func TestArchivedIDNotReusedDurable(t *testing.T) {
	dir := t.TempDir()
	cfg := ManagerConfig{DataDir: dir, Durability: DurabilityConfig{Sync: wal.SyncAlways}}
	m := newTestManager(t, cfg)
	h := m.Handler()
	if rec := fleetPost(t, h, "/runs", `{"id":"beta"}`); rec.Code != http.StatusCreated {
		t.Fatalf("create beta: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := fleetPost(t, h, "/runs/beta/submit", `{"peer":"hr","rule":"clear","bindings":{"x":"sue"}}`); rec.Code != http.StatusOK {
		t.Fatalf("submit beta: status %d: %s", rec.Code, rec.Body.String())
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/runs/beta", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("archive beta: status %d: %s", rec.Code, rec.Body.String())
	}
	log := filepath.Join(dir, "runs", "beta", "wal.log")
	before, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	if rec := fleetPost(t, h, "/runs", `{"id":"beta"}`); rec.Code != http.StatusConflict {
		t.Fatalf("re-create of archived beta: status %d, want 409: %s", rec.Code, rec.Body.String())
	}
	if err := m.CreateRun("beta"); !errors.Is(err, ErrRunArchived) {
		t.Fatalf("CreateRun(archived beta) = %v, want ErrRunArchived", err)
	}
	if after, err := os.ReadFile(log); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the refused create touched the archived log (err %v)", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	h = newTestManager(t, cfg).Handler()
	for _, path := range []string{"/runs/beta/view?peer=hr", "/runs/beta/trace"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("after restart GET %s: status %d, want 404", path, rec.Code)
		}
	}
}

// An in-memory fleet keeps nothing of an archived run, so its id starts a
// new, empty run.
func TestArchivedIDReusedInMemory(t *testing.T) {
	reg := obs.NewRegistry()
	m := newTestManager(t, ManagerConfig{Registry: reg})
	archivedRun(t, m, reg, "again", nil)
	if err := m.CreateRun("again"); err != nil {
		t.Fatalf("in-memory re-create of an archived id: %v", err)
	}
	c, ok := m.Run("again")
	if !ok || c.Len() != 0 {
		t.Fatalf("re-created run: routable %v, want an empty run", ok)
	}
}
