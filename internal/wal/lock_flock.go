//go:build linux || darwin || dragonfly || freebsd || netbsd || openbsd

package wal

import (
	"errors"
	"os"
	"syscall"
)

// lockFile takes an exclusive, non-blocking flock on f, so one log at a
// time owns its dir, and returns ErrInUse when another open file holds it.
// The lock belongs to f's open file description: closing f releases it,
// and so does the death of the process holding it.
func lockFile(f *os.File) error {
	for {
		err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
		if err == syscall.EINTR {
			continue
		}
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return ErrInUse
		}
		return err
	}
}
