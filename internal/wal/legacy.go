package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"collabwf/internal/trace"
)

// Legacy is a dir written before logs had a header: its snapshot.json (nil
// when absent) and its log's record lines.
type Legacy struct {
	Snapshot *LegacySnapshot
	Records  []LegacyRecord
}

// LegacySnapshot is a legacy snapshot.json: a guarded run's guards and, in
// dirs written before the log became the run's only record, the trace of
// the first Len events with the idempotency window its log reset dropped.
// CRC, when not zero, is the CRC32C of the compact encoding with CRC zero.
type LegacySnapshot struct {
	Workflow string         `json:"workflow,omitempty"`
	Guards   map[string]int `json:"guards,omitempty"`
	Len      int            `json:"len"`
	Trace    *trace.Trace   `json:"trace"`
	Idem     []IdemEntry    `json:"idem,omitempty"`
	CRC      uint32         `json:"crc,omitempty"`
}

// IdemEntry maps one idempotency key to the index of the event it produced.
type IdemEntry struct {
	Key   string `json:"key"`
	Index int    `json:"index"`
}

// LegacyRecord is a legacy record line; CRC is zero on a line written
// before records were checksummed.
type LegacyRecord struct {
	Seq   int               `json:"seq"`
	Event trace.EventRecord `json:"event"`
	Idem  string            `json:"idem,omitempty"`
	CRC   uint32            `json:"crc,omitempty"`
}

// LockLegacy takes the lock Open takes on dir's log, which earlier
// versions take too, so an upgrade cannot run beside a server on dir:
// it fails with ErrInUse while one runs. release drops the lock.
func LockLegacy(dir string) (release func(), err error) {
	f, err := os.Open(filepath.Join(dir, logName))
	if os.IsNotExist(err) {
		return func() {}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := lockLog(dir, f); err != nil {
		return nil, err
	}
	return func() { f.Close() }, nil
}

// ReadLegacy reads dir as versions before the header did, with
// encoding/json, verifying each checksum present. A torn final line is
// left out; a corrupt snapshot or complete line is an error, so an upgrade
// drops no durable record. It returns nil when dir holds nothing to
// upgrade: no snapshot.json, and a log that is absent, empty or stamped.
func ReadLegacy(dir string) (*Legacy, error) {
	log, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("wal: %w", err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if snap == nil && len(log) == 0 || bytes.HasPrefix(log, []byte(headerOpen)) {
		return nil, nil
	}
	old := &Legacy{}
	if snap != nil {
		s := &LegacySnapshot{}
		if err := json.Unmarshal(snap, s); err != nil {
			return nil, fmt.Errorf("%w: snapshot: %v", ErrCorrupt, err)
		}
		c := *s
		c.CRC = 0
		if b, _ := json.Marshal(&c); s.CRC != 0 && crc32.Checksum(b, castagnoli()) != s.CRC {
			return nil, fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
		}
		old.Snapshot = s
	}
	for i := 1; ; i++ {
		line, rest, ok := bytes.Cut(log, []byte{'\n'})
		if !ok {
			return old, nil
		}
		line, log = bytes.TrimSpace(line), rest
		var rec LegacyRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrCorrupt, i, err)
		}
		if _, err := checkCRC(line); rec.CRC != 0 && err != nil {
			return nil, fmt.Errorf("line %d: %w", i, err)
		}
		old.Records = append(old.Records, rec)
	}
}
