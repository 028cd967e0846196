//go:build race

package delaunay

// raceEnabled reports whether the race detector is active: the allocation
// pin builds 20k points several times, which its instrumentation makes slow.
const raceEnabled = true
