//go:build race

package serve

// raceEnabled reports whether the race detector is active; its
// instrumentation changes what escapes to the heap, so an allocation pin
// skips or loosens its bound under -race.
const raceEnabled = true
