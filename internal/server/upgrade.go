package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"collabwf/internal/program"
	"collabwf/internal/trace"
	"collabwf/internal/wal"
)

// Upgrade rewrites in this version's log format each run of a data dir
// that an earlier version wrote — the default run at the root, then every
// non-archived runs/<id>, as NewManager finds them — and returns the dirs
// it rewrote: the offline step wal.ErrLegacy names.
//
// A run is read with wal.ReadLegacy, and its events, a legacy snapshot's
// prefix then the records past it, are re-checked with Run.Replay (a name
// that is no variable of the rule dropped). They are written through
// wal.Open, whose header takes the snapshot's workflow and guards, and
// AppendBuffered, each record with the idempotency key of its index: not
// through Submit, whose window would dedupe a key reused after eviction.
// A run's log is locked throughout, so a server still running on it, of
// this version or an earlier one, fails the upgrade with wal.ErrInUse
// before anything is read. The new log is renamed over wal.log, the old
// files kept as *.legacy; a run cut off mid-upgrade keeps its old files,
// or holds the new log and a snapshot.json that a rerun renames.
func Upgrade(dataDir, workflow string, p *program.Program) ([]string, error) {
	ids, err := liveRuns(dataDir)
	if err != nil {
		return nil, err
	}
	var done []string
	for i := -1; i < len(ids); i++ {
		dir := dataDir
		if i >= 0 {
			dir = filepath.Join(dataDir, "runs", ids[i])
		}
		if ok, err := upgradeDir(dir, workflow, p); err != nil {
			return done, fmt.Errorf("server: upgrading %s: %w", dir, err)
		} else if ok {
			done = append(done, dir)
		}
	}
	return done, nil
}

// upgradeDir upgrades one run dir, reporting whether it held a legacy run.
func upgradeDir(dir, workflow string, p *program.Program) (bool, error) {
	release, err := wal.LockLegacy(dir)
	if err != nil {
		return false, err
	}
	defer release()
	old, err := wal.ReadLegacy(dir)
	if err != nil {
		return false, err
	}
	snap := filepath.Join(dir, "snapshot.json")
	if old == nil {
		if err := os.Rename(snap, snap+".legacy"); err != nil && !os.IsNotExist(err) {
			return false, err
		}
		return false, nil
	}
	h := wal.Header{Workflow: workflow}
	run := program.NewRun(p)
	keys := make(map[int]string)
	replay := func(rec trace.EventRecord) error {
		e, err := rec.Decode(p)
		if err == nil {
			err = run.Replay(e)
		}
		if err != nil {
			return fmt.Errorf("event %d: %w", run.Len(), err)
		}
		return nil
	}
	if s := old.Snapshot; s != nil {
		h.Guards = s.Guards
		if s.Workflow != "" {
			h.Workflow = s.Workflow
		}
		if s.Trace != nil {
			if len(s.Trace.Initial) > 0 {
				return false, errors.New("the snapshot holds an initial instance, which no log records")
			}
			for _, rec := range s.Trace.Events {
				if err := replay(rec); err != nil {
					return false, err
				}
			}
		}
		for _, k := range s.Idem {
			keys[k.Index] = k.Key
		}
	}
	for _, rec := range old.Records {
		if rec.Idem != "" {
			keys[rec.Seq] = rec.Idem
		}
		if rec.Seq < run.Len() {
			continue // covered by the snapshot
		}
		if rec.Seq != run.Len() {
			return false, fmt.Errorf("WAL gap: record %d follows run of length %d", rec.Seq, run.Len())
		}
		if err := replay(rec.Event); err != nil {
			return false, err
		}
	}

	tmp := filepath.Join(dir, "upgrade.tmp")
	if err := os.RemoveAll(tmp); err != nil {
		return false, err
	}
	// The records are group-committed as they queue; Flush reports a
	// failed sync, which Close, skipping its sync on a stalled log, would
	// not.
	l, err := wal.Open(tmp, h, wal.Options{Sync: wal.SyncAlways}, nil)
	if err != nil {
		return false, err
	}
	for i, e := range run.Events() {
		if _, err = l.AppendBuffered(context.Background(), wal.Record{Seq: i, Event: e, Idem: keys[i]}); err != nil {
			break
		}
	}
	if err == nil {
		err = l.Flush()
	}
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return false, err
	}
	// The old log is linked as wal.log.legacy before the new one replaces
	// it, and snapshot.json renamed after, so every cut leaves a dir that
	// wal.Open refuses or serves whole.
	log := filepath.Join(dir, "wal.log")
	if err := os.Remove(log + ".legacy"); err != nil && !os.IsNotExist(err) {
		return false, err
	}
	if err := os.Link(log, log+".legacy"); err != nil && !os.IsNotExist(err) {
		return false, err
	}
	if err := os.Rename(filepath.Join(tmp, "wal.log"), log); err != nil {
		return false, err
	}
	if err := os.Rename(snap, snap+".legacy"); err != nil && !os.IsNotExist(err) {
		return false, err
	}
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err == nil {
		err = os.RemoveAll(tmp)
	}
	return err == nil, err
}
