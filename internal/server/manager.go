package server

import (
	"errors"
	"fmt"
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
// the startup scan skips it (the WAL stays on disk for offline audit).
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

// The lifecycle errors: an id that is live or reserved by a create or
// archive in flight, one that names no live run, one a durable fleet
// archived (never reused), and any create or archive after Close.
var (
	ErrRunExists     = errors.New("server: run already exists")
	ErrUnknownRun    = errors.New("server: unknown run")
	ErrRunArchived   = errors.New("server: run is archived")
	errManagerClosed = errors.New("server: manager is shut down")
)

// shard is one run's slice of the fleet: its own coordinator (lock,
// observable prefix, explainer caches, WAL segment, metric series) and its
// own handler.
type shard struct {
	id string
	c  *Coordinator
	h  http.Handler
}

// Manager serves a fleet of workflow runs: requests are routed by run id to
// per-run shards, each an independent Coordinator with its own lock,
// observable-prefix snapshot, explainer caches and WAL directory. The
// lifecycle API creates, lists and archives runs at runtime; legacy
// single-run paths alias to the default run.
type Manager struct {
	cfg   ManagerConfig
	start time.Time

	// mu guards shards, the lifetime tallies and closed. It is held only
	// to read or update the map: a nil entry reserves an id while its run
	// is being created or archived, so the recovery or close runs outside
	// the lock, routing skips the id and a second create of it fails.
	mu       sync.RWMutex
	shards   map[string]*shard
	created  int
	archived int
	closed   bool
	// busy counts the creates and archives in flight; it is added to under
	// mu while the fleet is open, and Close waits for it.
	busy sync.WaitGroup

	runsCreated  *obs.Counter
	runsArchived *obs.Counter
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
	m := &Manager{cfg: cfg, start: time.Now(), shards: make(map[string]*shard)}
	if reg := cfg.Registry; reg != nil {
		runsActive := reg.Gauge("wf_runs_active",
			"Live workflow runs (shards) served by the manager.")
		m.runsCreated = reg.Counter("wf_runs_created_total",
			"Runs created over the manager's lifetime (recovered runs included).")
		m.runsArchived = reg.Counter("wf_runs_archived_total",
			"Runs archived (WAL synced and closed) over the manager's lifetime.")
		fleetEvents := reg.Gauge("wf_fleet_events",
			"Released events across every live run — the fleet-wide total of the per-run wf_run_events series.")
		reg.OnGather(func() {
			shards := m.allShards()
			total := 0
			for _, s := range shards {
				total += s.c.Len()
			}
			runsActive.Set(float64(len(shards)))
			fleetEvents.Set(float64(total))
		})
	}
	if err := m.CreateRun(DefaultRun); err != nil {
		return nil, err
	}
	ids, err := liveRuns(cfg.DataDir)
	if err != nil {
		m.Close()
		return nil, err
	}
	for _, id := range ids {
		if err := m.CreateRun(id); err != nil {
			m.Close()
			return nil, err
		}
	}
	return m, nil
}

// liveRuns lists the named runs of a data dir ("": none) that a startup
// recovers: every non-archived directory under runs/, in sorted order, so
// recovery order is deterministic.
func liveRuns(dataDir string) ([]string, error) {
	if dataDir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(filepath.Join(dataDir, "runs"))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("server: scanning run directories: %w", err)
	}
	var ids []string
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		id := ent.Name()
		if !validRunID(id) {
			return nil, fmt.Errorf("server: run directory %q is not a valid run id", id)
		}
		if _, err := os.Stat(filepath.Join(dataDir, "runs", id, archivedMarker)); err == nil {
			continue // archived: skip, keep on disk for offline audit
		}
		ids = append(ids, id)
	}
	return ids, nil
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

// CreateRun creates (and, when durable, persists) a new run shard, built
// outside the fleet lock while a nil entry reserves id. A durable fleet
// never reuses an archived id, whose directory still holds the old run; an
// in-memory fleet has nothing to bring back and starts the id afresh.
func (m *Manager) CreateRun(id string) error {
	if !validRunID(id) {
		return fmt.Errorf("server: invalid run id %q", id)
	}
	if _, err := m.claim(id, false); err != nil {
		return err
	}
	s, err := m.newShard(id)
	if err != nil {
		m.settle(id, nil, nil)
		return err
	}
	m.settle(id, s, &m.created)
	if m.runsCreated != nil {
		m.runsCreated.Inc()
	}
	return nil
}

// claim reserves id with a nil entry for a create (the id must be free) or
// an archive (it must name a live run, which is returned). Close waits
// for every claim to settle.
func (m *Manager) claim(id string, archive bool) (*shard, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, taken := m.shards[id]
	switch {
	case m.closed:
		return nil, errManagerClosed
	case archive && s == nil:
		return nil, fmt.Errorf("%w %q", ErrUnknownRun, id)
	case !archive && taken:
		return nil, fmt.Errorf("%w: %q", ErrRunExists, id)
	}
	m.shards[id] = nil
	m.busy.Add(1)
	return s, nil
}

// settle ends a claim of id, registering s under it (nil: removing the
// entry) and adding one to tally, the created or archived count, if any.
func (m *Manager) settle(id string, s *shard, tally *int) {
	m.mu.Lock()
	if s != nil {
		m.shards[id] = s
	} else {
		delete(m.shards, id)
	}
	if tally != nil {
		*tally++
	}
	m.mu.Unlock()
	m.busy.Done()
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
	if cfg.Dir != "" {
		if _, err := os.Stat(filepath.Join(cfg.Dir, archivedMarker)); err == nil {
			return nil, fmt.Errorf("%w: %q", ErrRunArchived, id)
		}
	}
	c, err := NewDurable(m.cfg.Workflow, m.cfg.Prog, cfg)
	if err != nil {
		return nil, fmt.Errorf("server: recovering run %q: %w", id, err)
	}
	return &shard{id: id, c: c, h: NewHandler(c, m.cfg.HTTP)}, nil
}

// get returns the live shard for id.
func (m *Manager) get(id string) (*shard, bool) {
	m.mu.RLock()
	s := m.shards[id]
	m.mu.RUnlock()
	return s, s != nil
}

// allShards snapshots the live shards, sorted by id.
func (m *Manager) allShards() []*shard {
	m.mu.RLock()
	out := make([]*shard, 0, len(m.shards))
	for _, s := range m.shards {
		if s != nil {
			out = append(out, s)
		}
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// ArchiveRun shuts a run down: its WAL is synced and closed, its metric
// series and gather hook removed, and its directory marked so
// the next startup scan skips it. The default run cannot be archived
// (legacy paths depend on it).
func (m *Manager) ArchiveRun(id string) error {
	if id == DefaultRun {
		return fmt.Errorf("server: the default run cannot be archived")
	}
	s, err := m.claim(id, true)
	if err != nil {
		return err
	}
	err = s.c.Close()
	s.c.metrics.Close()
	if dir := m.runDir(id); dir != "" {
		if merr := os.WriteFile(filepath.Join(dir, archivedMarker), []byte(time.Now().UTC().Format(time.RFC3339)+"\n"), 0o644); merr != nil && err == nil {
			err = fmt.Errorf("server: marking run %q archived: %w", id, merr)
		}
	}
	m.settle(id, nil, &m.archived)
	if m.runsArchived != nil {
		m.runsArchived.Inc()
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
	m.mu.RLock()
	created, archived := m.created, m.archived
	m.mu.RUnlock()
	st := &RunsStatusz{Active: len(runs), Created: created, Archived: archived, Runs: runs}
	for _, r := range runs {
		st.Events += r.Events
	}
	return st
}

// Close refuses further creates and archives, waits for those in flight,
// then shuts every shard down (each WAL synced and closed). Idempotent;
// the first error wins.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	m.busy.Wait()
	var first error
	for _, s := range m.allShards() {
		if err := s.c.Close(); err != nil && first == nil {
			first = fmt.Errorf("server: closing run %q: %w", s.id, err)
		}
	}
	return first
}
