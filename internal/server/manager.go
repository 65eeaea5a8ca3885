package server

import (
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"collabwf/internal/obs"
	"collabwf/internal/program"
	"collabwf/internal/wal"
)

// DefaultRun is the id of the run that legacy single-run paths alias to.
const DefaultRun = "default"

// validRunID reports whether id is a valid run id: 1 to 64 bytes of
// [A-Za-z0-9_.-], the first a letter or digit, so an id is path- and
// filesystem-safe, bounded, and never starts with a separator character.
// It is a byte loop rather than a regexp, which would cost every start a
// compile at package init.
func validRunID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case 'A' <= c && c <= 'Z', 'a' <= c && c <= 'z', '0' <= c && c <= '9':
		case i > 0 && (c == '_' || c == '.' || c == '-'):
		default:
			return false
		}
	}
	return true
}

// archivedMarker is the file dropped into an archived run's directory so
// the startup scan skips it (the WAL and any guard file stay on disk for
// offline audit).
const archivedMarker = "archived"

// ManagerConfig configures a run fleet.
type ManagerConfig struct {
	// Workflow names the program (every shard's coordinator name).
	Workflow string
	// Prog is the workflow program all runs execute.
	Prog *program.Program
	// DataDir is the fleet's durable root: the default run lives at the
	// root itself (so a pre-fleet single-run directory recovers unchanged)
	// and named runs under DataDir/runs/<id>/. Empty runs the whole fleet
	// in memory.
	DataDir string
	// Durability is the template for every shard's configuration, in memory
	// or durable alike (IdemWindow, DecisionLog and Guards apply to both);
	// Dir and RunID are filled in per shard, Metrics and Logger from the
	// fields below, Failpoints per run via the Failpoints hook. Guards are
	// installed on every run that starts fresh; the Profiler is given to the
	// default run only, so sibling runs never bleed into its tallies.
	Durability DurabilityConfig
	// HTTP is the template for every shard's handler options.
	HTTP HTTPOptions
	// Registry, when non-nil, is every shard's Durability.Metrics (its
	// coordinator families labelled by run) and carries the aggregate
	// families (wf_runs_active, wf_runs_created_total,
	// wf_runs_archived_total, wf_fleet_events).
	Registry *obs.Registry
	// Logger, when non-nil, is every shard's Durability.Logger.
	Logger *slog.Logger
	// Failpoints, when non-nil, supplies per-run WAL fault injection
	// (tests and the E20 stall-isolation experiment); called once per
	// shard with its run id.
	Failpoints func(run string) *wal.Failpoints
}

// shard is one run's slice of the fleet: its own coordinator (lock,
// observable prefix, explainer caches, WAL segment, metric series) and its
// own handler.
type shard struct {
	id string
	c  *Coordinator
	h  http.Handler
}

// managerBuckets is the shard-map partition count: requests hash their run
// id to a bucket, so create/archive of one run never contends with routing
// to another.
const managerBuckets = 16

type managerBucket struct {
	mu     sync.RWMutex
	shards map[string]*shard
}

// Manager serves a fleet of workflow runs: requests are hash-routed to
// per-run shards, each an independent Coordinator with its own lock,
// observable-prefix snapshot, explainer caches and WAL directory. The
// lifecycle API creates, lists and archives runs at runtime; legacy
// single-run paths alias to the default run.
type Manager struct {
	cfg     ManagerConfig
	start   time.Time
	buckets [managerBuckets]managerBucket

	// lifecycle serializes create/archive against Close and carries the
	// lifetime tallies the fleet gauges report.
	lifecycle sync.Mutex
	created   int
	archived  int
	closed    bool

	runsActive   *obs.Gauge
	runsCreated  *obs.Counter
	runsArchived *obs.Counter
	fleetEvents  *obs.Gauge
}

// NewManager recovers (or starts) a run fleet: the default run from the
// data-dir root, then every non-archived directory under DataDir/runs/ in
// sorted order. A fleet with no data dir starts with just the in-memory
// default run.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.Prog == nil {
		return nil, fmt.Errorf("server: manager requires a program")
	}
	if cfg.Workflow == "" {
		cfg.Workflow = "workflow"
	}
	m := &Manager{cfg: cfg, start: time.Now()}
	for i := range m.buckets {
		m.buckets[i].shards = make(map[string]*shard)
	}
	if reg := cfg.Registry; reg != nil {
		m.runsActive = reg.Gauge("wf_runs_active",
			"Live workflow runs (shards) served by the manager.")
		m.runsCreated = reg.Counter("wf_runs_created_total",
			"Runs created over the manager's lifetime (recovered runs included).")
		m.runsArchived = reg.Counter("wf_runs_archived_total",
			"Runs archived (WAL synced and closed) over the manager's lifetime.")
		m.fleetEvents = reg.Gauge("wf_fleet_events",
			"Released events across every live run — the fleet-wide total of the per-run wf_run_events series.")
		reg.OnGather(func() {
			total := 0
			for _, s := range m.allShards() {
				total += s.c.Len()
			}
			m.fleetEvents.Set(float64(total))
		})
	}
	if _, err := m.addRun(DefaultRun); err != nil {
		return nil, err
	}
	// Recover the named runs. ReadDir returns entries sorted by name, so
	// recovery order is deterministic.
	if cfg.DataDir != "" {
		entries, err := os.ReadDir(filepath.Join(cfg.DataDir, "runs"))
		if err != nil && !os.IsNotExist(err) {
			m.Close()
			return nil, fmt.Errorf("server: scanning run directories: %w", err)
		}
		for _, ent := range entries {
			if !ent.IsDir() {
				continue
			}
			id := ent.Name()
			if !validRunID(id) {
				m.Close()
				return nil, fmt.Errorf("server: run directory %q is not a valid run id", id)
			}
			if _, err := os.Stat(filepath.Join(cfg.DataDir, "runs", id, archivedMarker)); err == nil {
				continue // archived: skip, keep on disk for offline audit
			}
			if _, err := m.addRun(id); err != nil {
				m.Close()
				return nil, err
			}
		}
	}
	return m, nil
}

// bucket returns the shard bucket for a run id (FNV-1a hash routing).
func (m *Manager) bucket(id string) *managerBucket {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &m.buckets[h.Sum32()%managerBuckets]
}

// runDir returns the durable directory of a run ("" for in-memory fleets).
func (m *Manager) runDir(id string) string {
	if m.cfg.DataDir == "" {
		return ""
	}
	if id == DefaultRun {
		return m.cfg.DataDir
	}
	return filepath.Join(m.cfg.DataDir, "runs", id)
}

// addRun constructs and registers a shard for id. The bucket lock is held
// across construction so a concurrent create of the same id waits and then
// fails on the exists check rather than double-recovering one directory.
func (m *Manager) addRun(id string) (*shard, error) {
	if !validRunID(id) {
		return nil, fmt.Errorf("server: invalid run id %q", id)
	}
	b := m.bucket(id)
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.shards[id]; ok {
		return nil, fmt.Errorf("server: run %q already exists", id)
	}
	s, err := m.newShard(id)
	if err != nil {
		return nil, err
	}
	b.shards[id] = s
	m.lifecycle.Lock()
	m.created++
	active := m.created - m.archived
	m.lifecycle.Unlock()
	if m.runsCreated != nil {
		m.runsCreated.Inc()
		// The bucket lock is still held: derive the active count from the
		// lifecycle tallies rather than re-walking the buckets via allShards,
		// which would self-deadlock on this bucket.
		m.runsActive.Set(float64(active))
	}
	return s, nil
}

// newShard builds one run's coordinator + handler: it recovers the run's
// directory, or starts in memory when the fleet has no data dir.
func (m *Manager) newShard(id string) (*shard, error) {
	cfg := m.cfg.Durability
	cfg.Dir, cfg.RunID = m.runDir(id), id
	cfg.Metrics, cfg.Logger = m.cfg.Registry, m.cfg.Logger
	if m.cfg.Failpoints != nil {
		cfg.Failpoints = m.cfg.Failpoints(id)
	}
	if id != DefaultRun {
		cfg.Profiler = nil
	}
	c, err := NewDurable(m.cfg.Workflow, m.cfg.Prog, cfg)
	if err != nil {
		return nil, fmt.Errorf("server: recovering run %q: %w", id, err)
	}
	return &shard{id: id, c: c, h: NewHandler(c, m.cfg.HTTP)}, nil
}

// get returns the live shard for id.
func (m *Manager) get(id string) (*shard, bool) {
	b := m.bucket(id)
	b.mu.RLock()
	s, ok := b.shards[id]
	b.mu.RUnlock()
	return s, ok
}

// allShards snapshots the live shards, sorted by id.
func (m *Manager) allShards() []*shard {
	var out []*shard
	for i := range m.buckets {
		b := &m.buckets[i]
		b.mu.RLock()
		for _, s := range b.shards {
			out = append(out, s)
		}
		b.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// CreateRun creates (and, when durable, persists) a new run shard.
func (m *Manager) CreateRun(id string) error {
	m.lifecycle.Lock()
	closed := m.closed
	m.lifecycle.Unlock()
	if closed {
		return fmt.Errorf("server: manager is shut down")
	}
	_, err := m.addRun(id)
	return err
}

// ArchiveRun shuts a run down: its WAL is synced and closed, its metric
// series and gather hook removed, and its directory marked so
// the next startup scan skips it. The default run cannot be archived
// (legacy paths depend on it).
func (m *Manager) ArchiveRun(id string) error {
	if id == DefaultRun {
		return fmt.Errorf("server: the default run cannot be archived")
	}
	b := m.bucket(id)
	b.mu.Lock()
	s, ok := b.shards[id]
	if ok {
		delete(b.shards, id)
	}
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("server: unknown run %q", id)
	}
	err := s.c.Close()
	s.c.metrics.Close()
	if dir := m.runDir(id); dir != "" {
		if merr := os.WriteFile(filepath.Join(dir, archivedMarker), []byte(time.Now().UTC().Format(time.RFC3339)+"\n"), 0o644); merr != nil && err == nil {
			err = fmt.Errorf("server: marking run %q archived: %w", id, merr)
		}
	}
	m.lifecycle.Lock()
	m.archived++
	m.lifecycle.Unlock()
	if m.runsArchived != nil {
		m.runsArchived.Inc()
		m.runsActive.Set(float64(len(m.allShards())))
	}
	return err
}

// Run returns the coordinator of a live run (tests, benches, the CLI).
func (m *Manager) Run(id string) (*Coordinator, bool) {
	s, ok := m.get(id)
	if !ok {
		return nil, false
	}
	return s.c, true
}

// Default returns the default run's coordinator.
func (m *Manager) Default() *Coordinator {
	c, _ := m.Run(DefaultRun)
	return c
}

// Runs reports the live fleet, sorted by run id.
func (m *Manager) Runs() []RunStatus {
	shards := m.allShards()
	out := make([]RunStatus, len(shards))
	for i, s := range shards {
		out[i] = runStatus(s.id, s.c)
	}
	return out
}

// RunsStatus assembles the fleet block for /statusz.
func (m *Manager) RunsStatus() *RunsStatusz {
	runs := m.Runs()
	m.lifecycle.Lock()
	created, archived := m.created, m.archived
	m.lifecycle.Unlock()
	st := &RunsStatusz{Active: len(runs), Created: created, Archived: archived, Runs: runs}
	for _, r := range runs {
		st.Events += r.Events
	}
	return st
}

// Close shuts every shard down (each WAL synced and closed). Idempotent;
// the first error wins.
func (m *Manager) Close() error {
	m.lifecycle.Lock()
	if m.closed {
		m.lifecycle.Unlock()
		return nil
	}
	m.closed = true
	m.lifecycle.Unlock()
	var first error
	for _, s := range m.allShards() {
		if err := s.c.Close(); err != nil && first == nil {
			first = fmt.Errorf("server: closing run %q: %w", s.id, err)
		}
	}
	return first
}
