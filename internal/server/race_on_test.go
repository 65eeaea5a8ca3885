//go:build race

package server

// raceDetector reports whether the test binary was built with -race, which
// instruments allocations: allocation pins hold only without it.
const raceDetector = true
