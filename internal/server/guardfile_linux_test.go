//go:build linux

package server

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// logCreations watches dir with inotify while build runs and returns how
// many times a file was created in it as wal.log or snapshot.json.
func logCreations(t *testing.T, dir string, build func()) int {
	t.Helper()
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		t.Skipf("inotify unavailable: %v", err)
	}
	defer syscall.Close(fd)
	if _, err := syscall.InotifyAddWatch(fd, dir, syscall.IN_CREATE|syscall.IN_MOVED_TO); err != nil {
		t.Skipf("inotify watch: %v", err)
	}
	build()
	// Events are queued before the syscall returns, so one non-blocking
	// read after build sees them all.
	buf := make([]byte, 64*(syscall.SizeofInotifyEvent+syscall.NAME_MAX+1))
	n, err := syscall.Read(fd, buf)
	if err == syscall.EAGAIN {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	created := 0
	for off := 0; off < n; {
		nameLen := int(binary.NativeEndian.Uint32(buf[off+12:]))
		name := strings.TrimRight(string(buf[off+syscall.SizeofInotifyEvent:off+syscall.SizeofInotifyEvent+nameLen]), "\x00")
		if name == "wal.log" || name == "snapshot.json" {
			created++
		}
		off += syscall.SizeofInotifyEvent + nameLen
	}
	return created
}

// TestFreshGuardsWrittenOnce: a fleet's fresh default run guarded for two
// peers creates one file, wal.log, whose only line is the header holding
// both guards: not a file per peer, and no snapshot.json.
func TestFreshGuardsWrittenOnce(t *testing.T) {
	dir := t.TempDir()
	guards := map[string]int{"sue": 2, "hr": 3}
	var m *Manager
	created := logCreations(t, dir, func() {
		m = newTestManager(t, ManagerConfig{DataDir: dir, Durability: DurabilityConfig{Guards: guards}})
	})
	if created != 1 {
		t.Fatalf("%d files created, want wal.log alone", created)
	}
	if g := m.Default().Guards(); len(g) != 2 {
		t.Fatalf("default run guards %v, want %v", g, guards)
	}
	b, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil || bytes.Count(b, []byte("\n")) != 1 || !bytes.Contains(b, []byte(`"guards":{"hr":3,"sue":2}`)) {
		t.Fatalf("wal.log = %q (%v), want one header line holding both guards", b, err)
	}
}
