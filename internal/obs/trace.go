package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// A Phase labels one stage of a query's execution in a QueryTrace.
type Phase int

const (
	// PhaseCacheLookup timed the result cache's key build and probe. The
	// cache left in PR 24 and nothing records this phase any more; the
	// constant keeps slot 0 only because benchmark/workloads.go names it and
	// a PR may not edit the benchmark. It leaves with the next [benchmark]
	// PR.
	PhaseCacheLookup Phase = iota
	// PhaseSeed is locating where a Voronoi query starts: the greedy walk
	// on the Delaunay graph to the BFS seed site, and the strict rule's
	// ring starts on a polygon's boundary (Voronoi methods only).
	PhaseSeed
	// PhaseExpand is the main scan: BFS expansion over the Voronoi
	// adjacency, or the filter-and-refine loop of the traditional and
	// brute-force methods, excluding time spent in page fetches.
	PhaseExpand
	// PhasePageFetch is time spent reading store pages through the buffer
	// pool of a data layer that has a store: a query's first record load
	// on each page (and a load on a page that has left the pool since).
	// Its later loads on a resident page read it in place and are
	// not timed as a fetch (they count under PhaseExpand), nor is a load
	// where the layer has no store (the default on every flavor, dynamic
	// epochs always): a candidate's position is then read in place, which
	// cannot block. So PhasePageFetch reads the clock once per page a
	// query fetches, not once per record.
	PhasePageFetch
	// PhaseMerge is the sharded engine's sorted merge of per-shard
	// results.
	PhaseMerge
	numPhases
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseCacheLookup:
		return "cache_lookup"
	case PhaseSeed:
		return "seed"
	case PhaseExpand:
		return "expand"
	case PhasePageFetch:
		return "page_fetch"
	case PhaseMerge:
		return "merge"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// A QueryTrace records where one query spent its time, phase by phase,
// so a single slow query can be explained. Attach one to a query with
// the vaq.WithTraceInto option; the engine resets it at query start
// and fills it in as the query runs. All methods are safe on a nil
// receiver (the disabled path is a nil check) and safe for concurrent
// use — sharded queries record phases from several goroutines at once.
//
// Phase durations need not sum to Total: phases cover the instrumented
// stages only, and sharded queries overlap per-shard work in wall
// time.
type QueryTrace struct {
	mu         sync.Mutex
	flavor     string                   // guarded by mu
	method     string                   // guarded by mu
	phases     [numPhases]time.Duration // guarded by mu
	total      time.Duration            // guarded by mu
	candidates int                      // guarded by mu
	results    int                      // guarded by mu
	fanOut     int                      // guarded by mu
	done       bool                     // guarded by mu
}

// Begin resets the trace for a new query on the given engine flavor
// and method. No-op on a nil receiver.
func (t *QueryTrace) Begin(flavor, method string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phases = [numPhases]time.Duration{}
	t.flavor, t.method = flavor, method
	t.total, t.candidates, t.results, t.fanOut = 0, 0, 0, 0
	t.done = false
	t.mu.Unlock()
}

// Add accrues d to the given phase. No-op on a nil receiver.
func (t *QueryTrace) Add(p Phase, d time.Duration) {
	if t == nil || p < 0 || p >= numPhases {
		return
	}
	t.mu.Lock()
	t.phases[p] += d
	t.mu.Unlock()
}

// SetFanOut records how many partitions a query scattered to after
// pruning. No-op on a nil receiver.
func (t *QueryTrace) SetFanOut(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.fanOut = n
	t.mu.Unlock()
}

// Finish records the query's total wall time and work counters
// (candidates examined, results emitted). No-op on a nil receiver.
func (t *QueryTrace) Finish(total time.Duration, candidates, results int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total = total
	t.candidates = candidates
	t.results = results
	t.done = true
	t.mu.Unlock()
}

// Total returns the query's wall time as recorded by Finish.
func (t *QueryTrace) Total() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Phase returns the accrued duration of one phase.
func (t *QueryTrace) Phase(p Phase) time.Duration {
	if t == nil || p < 0 || p >= numPhases {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.phases[p]
}

// FanOut returns the recorded fan-out: the partitions the query reached
// after pruning — 1 when an engine's only shard (a static engine's, a
// dynamic epoch's) answered it, 0 when pruning left none.
func (t *QueryTrace) FanOut() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fanOut
}

// String renders the trace as a log-friendly one-liner, e.g.
//
//	trace flavor=sharded method=voronoi total=1.2ms fanout=4
//	candidates=812 results=790 | seed=80µs expand=640µs page_fetch=210µs merge=95µs
func (t *QueryTrace) String() string {
	if t == nil {
		return "trace <nil>"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "trace flavor=%s method=%s total=%s", t.flavor, t.method, t.total)
	if t.fanOut > 0 {
		fmt.Fprintf(&b, " fanout=%d", t.fanOut)
	}
	fmt.Fprintf(&b, " candidates=%d results=%d |", t.candidates, t.results)
	for p := Phase(0); p < numPhases; p++ {
		if t.phases[p] > 0 {
			fmt.Fprintf(&b, " %s=%s", p, t.phases[p])
		}
	}
	return b.String()
}
