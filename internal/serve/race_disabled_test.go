//go:build !race

package serve

// raceEnabled reports whether the race detector is active; see
// race_enabled_test.go.
const raceEnabled = false
