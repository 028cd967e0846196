package core

import (
	"slices"
	"sync"

	"repro/internal/geom"
	"repro/internal/robust"
)

// queryScratch is the per-query mutable state of the engine: the
// generation-stamped visited table and the BFS frontier queue. Isolating it
// from the Engine (which otherwise holds only immutable references to the
// index and data) is what makes one Engine safe for concurrent queries —
// each in-flight query owns exactly one scratch, checked out of a sync.Pool
// and returned when the query finishes.
type queryScratch struct {
	// Generation-stamped visited marks: visited[i] == gen means "seen this
	// query". Avoids clearing an O(n) structure per query. (One-byte stamps,
	// a quarter of the table and a clear every 255 queries, measured a tie:
	// at 200k sites both tables stay in L2.)
	visited []uint32
	gen     uint32
	// queue is the BFS frontier, in the int32 ids the adjacency stores. A
	// strict polygon query keeps its shell in it too: the traced cells
	// first, then the validated sites found inside, then the flood.
	queue []int32
	// cross caches the trace's bisector crossings of one cell's neighbours,
	// and ties lists the sites as near to a tie point; see shell.go.
	cross []robust.Crossing
	ties  []int32
	// passes holds, beside the shell in the queue's prefix, the trace's
	// pass through each of its cells: see shellPass.
	passes []shellPass
	// cell and spare are the two buffers the strict rule clips a custom
	// region's cell into (testCell), reused from cell to cell.
	cell, spare []geom.Point
	// out collects the running area query's results; set by
	// Engine.collect for the query's duration and cleared before the
	// scratch returns to the pool.
	out collector
}

// collector receives an area query's results as the algorithm validates
// them: appended to dest, handed to yield (streaming; nothing is
// materialized), or only counted.
type collector struct {
	dest      []int64
	count     int
	countOnly bool
	yield     func(id int64, pos geom.Point) bool
}

// add records one result (id plus its authoritative loaded position);
// false stops the query early with no error: yield declined.
//
//vaq:noalloc
func (c *collector) add(id int64, pos geom.Point) bool {
	c.count++
	if c.yield != nil {
		return c.yield(id, pos)
	}
	if !c.countOnly {
		c.dest = append(c.dest, id)
	}
	return true
}

// newScratchPool returns a pool of empty scratches; acquireScratch sizes
// each to the engine that checks it out. The pool refers to nothing, so an
// engine holding it keeps nothing else alive.
func newScratchPool() *sync.Pool {
	return &sync.Pool{New: func() interface{} { return new(queryScratch) }}
}

// ensureCapacity grows the visited table to cover n ids. A new scratch
// gets exactly n; one that fell behind — the dynamic engine's id space
// grows by one per insert, and every epoch checks scratches out of the one
// pool — gets a quarter more than it had, so a new table (allocated, zeroed
// and copied into, O(n)) is the cost of one insert in n/4 rather than of
// each.
func (s *queryScratch) ensureCapacity(n int) {
	if len(s.visited) >= n {
		return
	}
	if spare := len(s.visited) + len(s.visited)/4; n < spare {
		n = spare
	}
	grown := make([]uint32, n)
	copy(grown, s.visited)
	s.visited = grown
}

// nextGen advances the visited generation, handling wraparound by clearing.
//
//vaq:noalloc
func (s *queryScratch) nextGen() {
	s.gen++
	if s.gen == 0 { // wrapped: all stamps are stale-but-plausible, clear
		clear(s.visited)
		s.gen = 1
	}
}

// mark records id as visited for the current query; it reports whether the
// id was new.
//
//vaq:noalloc
func (s *queryScratch) mark(id int32) bool {
	if s.visited[id] == s.gen {
		return false
	}
	s.visited[id] = s.gen
	return true
}

// seen reports whether id was already marked this query.
//
//vaq:noalloc
func (s *queryScratch) seen(id int32) bool { return s.visited[id] == s.gen }

// enqueueUnvisited marks every id of ring and appends those that were not
// marked yet to the queue, in ring order: mark and append per id, as the
// interior step of the BFS asks, with no branch on the mark. Whether an
// interior point's neighbor was already visited goes either way about half
// the time, so a branch on it is mispredicted about as often. The queue
// makes room for the whole ring; for each id the stamp and the id are
// stored unconditionally, and the write index advances (a conditional move)
// only past an id whose old stamp was stale.
//
//vaq:noalloc
func (s *queryScratch) enqueueUnvisited(ring []int32) {
	q := slices.Grow(s.queue, len(ring))
	n := len(q)
	q = q[:n+len(ring)]
	visited, gen := s.visited, s.gen
	for _, id := range ring {
		stale := visited[id] != gen
		visited[id] = gen
		q[n] = id
		if stale {
			n++
		}
	}
	s.queue = q[:n]
}

// acquireScratch checks a scratch out of the engine's pool, sized to the
// current id space with a fresh generation and an empty queue.
//
//vaq:pooled
func (e *Engine) acquireScratch() *queryScratch {
	s := e.scratch.Get().(*queryScratch)
	s.ensureCapacity(len(e.data.pts))
	s.queue = s.queue[:0]
	s.nextGen()
	return s
}

// releaseScratch returns a scratch to the pool for reuse by later queries.
func (e *Engine) releaseScratch(s *queryScratch) { e.scratch.Put(s) }
