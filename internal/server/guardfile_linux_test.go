//go:build linux

package server

import (
	"encoding/binary"
	"strings"
	"syscall"
	"testing"
)

// guardFileRenames watches dir with inotify while build runs and returns
// how many times a file was renamed into place as snapshot.json — once per
// wal.WriteGuards call. Creations are watched too: each write creates its
// temp file, which keeps the kernel from merging back-to-back renames
// into one queued event.
func guardFileRenames(t *testing.T, dir string, build func()) int {
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
	// Events are queued before rename returns, so one non-blocking read
	// after build sees them all.
	buf := make([]byte, 64*(syscall.SizeofInotifyEvent+syscall.NAME_MAX+1))
	n, err := syscall.Read(fd, buf)
	if err == syscall.EAGAIN {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	renames := 0
	for off := 0; off < n; {
		mask := binary.NativeEndian.Uint32(buf[off+4:])
		nameLen := int(binary.NativeEndian.Uint32(buf[off+12:]))
		name := buf[off+syscall.SizeofInotifyEvent : off+syscall.SizeofInotifyEvent+nameLen]
		if mask&syscall.IN_MOVED_TO != 0 && strings.TrimRight(string(name), "\x00") == "snapshot.json" {
			renames++
		}
		off += syscall.SizeofInotifyEvent + nameLen
	}
	return renames
}

// TestFreshGuardsWrittenOnce: a fleet's fresh default run guarded for two
// peers writes its guard file once, holding both guards, not once per peer.
func TestFreshGuardsWrittenOnce(t *testing.T) {
	dir := t.TempDir()
	guards := map[string]int{"sue": 2, "hr": 3}
	var m *Manager
	renames := guardFileRenames(t, dir, func() {
		m = newTestManager(t, ManagerConfig{DataDir: dir, Durability: DurabilityConfig{Guards: guards}})
	})
	if renames != 1 {
		t.Fatalf("snapshot.json written %d times, want 1", renames)
	}
	if g := m.Default().Guards(); len(g) != 2 {
		t.Fatalf("default run guards %v, want %v", g, guards)
	}
}
