package core

import (
	"sync"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// RTreeIndex is the filtering index of the paper: an STR-packed R-tree over
// the stored points, asked for a window by the traditional filter. (The
// paper also seeds Algorithm 1 from it; here the seed is a walk on the
// Delaunay graph, see seedWalk.)
//
// There is one way to build it, packing pts[first:] with each id its
// position, and an engine's index does so on its first Traditional query,
// exactly once however many goroutines race to it (LazyRTreeIndex). Only
// Traditional reads the tree, so an engine — static, store-backed, a shard
// or a dynamic epoch — that runs no Traditional query never packs one. The
// tree's leaves are int32 ids that read pts in place: an engine indexes its
// data layer's own positions (MemoryData.Positions), so each site's position
// is stored once.
type RTreeIndex struct {
	once sync.Once
	tree *rtree.Tree
	// pts, first and fanout are what the tree is packed from; pts is what it
	// reads, and must not change while the index is in use.
	pts    []geom.Point
	first  int
	fanout int
}

// LazyRTreeIndex returns the index of an engine over data: an R-tree over the
// layer's user sites, read in place, packed (rtree.DefaultMaxEntries to a
// node) by the first Window or Nearest call, not here.
func LazyRTreeIndex(data *MemoryData) *RTreeIndex {
	return &RTreeIndex{pts: data.Positions(), first: data.first, fanout: rtree.DefaultMaxEntries}
}

// NewRTreeIndex bulk-loads an STR-packed R-tree over pts with ids equal to
// slice indices. The index keeps pts and reads it on every query. It packs
// at once, so that what times the pack (the benchmark's rtree.bulk_build_s)
// or a Traditional query against a ready tree (areabench's Table I) measures
// each alone; an engine's index waits for its first Traditional query
// instead (LazyRTreeIndex).
func NewRTreeIndex(pts []geom.Point, maxEntries int) *RTreeIndex {
	x := &RTreeIndex{pts: pts, fanout: maxEntries}
	x.get()
	return x
}

// get returns the tree, packing it on the first call.
func (x *RTreeIndex) get() *rtree.Tree {
	x.once.Do(func() { x.tree = rtree.BulkLoad(x.pts, x.first, x.fanout) })
	return x.tree
}

// Window calls fn for every stored point whose coordinates lie inside the
// closed rectangle q; fn returning false stops the scan. It returns the
// number of index nodes visited.
func (x *RTreeIndex) Window(q geom.Rect, fn func(id int64) bool) int {
	return x.get().Search(q, fn)
}

// Nearest returns the stored point id closest to q; ok is false when the
// index is empty. The second return is the number of index nodes visited.
// No query calls it: it is the lookup the paper seeds Algorithm 1 with, kept
// as what the benchmark's rtree.seed_* probe measures and what the seed
// walk's tests compare against.
func (x *RTreeIndex) Nearest(q geom.Point) (id int64, nodes int, ok bool) {
	return x.get().NearestNeighbor(q)
}
