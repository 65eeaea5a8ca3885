//go:build !(linux || darwin || dragonfly || freebsd || netbsd || openbsd)

package wal

import "os"

// lockFile is a no-op where flock is unavailable: two logs on one dir are
// not detected there.
func lockFile(*os.File) error { return nil }
