//go:build race

package vaq

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates inside sync.Pool, so allocation pins skip
// under -race.
const raceEnabled = true
