package core

import (
	"context"

	"repro/internal/geom"
)

// KNearest returns the k stored points nearest to q in increasing distance
// order, computed by Voronoi expansion (the VoR-tree property the paper
// builds on, Sharifzadeh & Shahabi 2010): the first nearest neighbor comes
// from the spatial index; thereafter the (j+1)-th nearest neighbor is
// always a Voronoi neighbor of one of the first j, so a best-first
// expansion over the Delaunay adjacency enumerates neighbors exactly. It
// returns fewer than k items when the dataset is smaller.
//
// Cancellation follows the area-query contract: ctx is checked before any
// index work and on candidate boundaries (every cancelStride heap pops),
// surfacing as ctx.Err() with the statistics of the work already done and
// no partial result slice.
func (e *Engine) KNearest(ctx context.Context, q geom.Point, k int) ([]int64, Stats, error) {
	return e.kNearestInto(ctx, q, k, nil)
}

// kNearestInto is KNearest appending into dest (from dest[:0]); a nil dest
// allocates a fresh result slice. With a pre-sized dest the whole expansion
// — frontier heap (pooled in queryScratch), visited marks, and the packed
// coordinate distance loop — performs zero allocations once the scratch is
// warm.
//
//vaq:noalloc
func (e *Engine) kNearestInto(ctx context.Context, q geom.Point, k int, dest []int64) ([]int64, Stats, error) {
	var stats Stats
	if e.idx.Len() == 0 {
		// Same contract as Query on an empty engine (not nil, nil — callers
		// can rely on one empty-data sentinel across every entry point).
		return nil, stats, ErrNoData
	}
	if k <= 0 {
		return dest[:0], stats, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	seed, nnNodes, _ := e.idx.Nearest(q) // the index is not empty
	stats.IndexNodesVisited += nnNodes

	// Auxiliary sites (dynamic fence points) are traversed but never
	// emitted.
	filter, _ := e.data.(ResultFilter)
	// Structure-of-arrays coordinates, when packed: the distance loop reads
	// the slices directly instead of calling Position per neighbor.
	var xs, ys []float64
	if cs, ok := e.data.(CoordSource); ok {
		xs, ys = cs.Coords()
	}

	s := e.acquireScratch()
	defer e.releaseScratch(s)
	s.heap = s.heap[:0]
	h := &s.heap
	h.push(knnEntry{id: seed, d2: e.siteDist2(q, xs, ys, seed)})
	s.mark(seed)

	out := dest[:0]
	if dest == nil {
		// k arrives unchecked from the network (/v1/knearest); the result
		// can never exceed the id space, so neither may the reservation.
		out = make([]int64, 0, min(k, e.data.NumIDs())) //vaqvet:ignore noalloc nil-dest entry path allocates the caller's result slice exactly once
	}
	for len(*h) > 0 && len(out) < k {
		top := h.pop()
		if filter == nil || filter.Returnable(top.id) {
			out = append(out, top.id)
		}
		stats.Candidates++
		if stats.Candidates%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				stats.ResultSize = len(out)
				return nil, stats, err
			}
		}
		for _, nb := range s.neighbors(e.data, top.id) {
			nb64 := int64(nb)
			if s.mark(nb64) {
				h.push(knnEntry{id: nb64, d2: e.siteDist2(q, xs, ys, nb64)})
			}
		}
	}
	stats.ResultSize = len(out)
	return out, stats, nil
}

// siteDist2 is the squared distance from q to id's position, reading the
// packed coordinate slices when the data layer provides them. Identical
// arithmetic to q.Dist2(Position(id)) on both paths. KNearest's frontier and
// the seed walk both measure with it.
//
//vaq:noalloc
func (e *Engine) siteDist2(q geom.Point, xs, ys []float64, id int64) float64 {
	if xs != nil {
		dx, dy := q.X-xs[id], q.Y-ys[id]
		return dx*dx + dy*dy
	}
	return q.Dist2(e.data.Position(id))
}

type knnEntry struct {
	id int64
	d2 float64
}

// knnHeap is a binary min-heap of (id, squared-distance) frontier entries.
// Its sift routines replicate container/heap's algorithm exactly — same
// parent/child index arithmetic, same left-child preference on equal keys —
// so distance ties pop in the same order the previous container/heap-based
// implementation produced, without boxing every entry through interface{}.
// The backing slice is pooled in queryScratch.
type knnHeap []knnEntry

func (h knnHeap) less(i, j int) bool { return h[i].d2 < h[j].d2 }

// push appends x and sifts it up (container/heap.Push).
//
//vaq:noalloc
func (h *knnHeap) push(x knnEntry) {
	*h = append(*h, x)
	h.up(len(*h) - 1)
}

// pop removes and returns the minimum entry (container/heap.Pop): swap the
// root with the last element, sift the new root down over the shortened
// heap, then detach the old root.
//
//vaq:noalloc
func (h *knnHeap) pop() knnEntry {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old[:n].down(0)
	x := old[n]
	*h = old[:n]
	return x
}

//vaq:noalloc
func (h knnHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

//vaq:noalloc
func (h knnHeap) down(i int) {
	n := len(h)
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child, strictly smaller
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
