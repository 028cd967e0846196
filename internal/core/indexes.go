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
// position. NewRTreeIndex does so at once; a dynamic epoch's index does so on
// the first read — a Traditional query, Bounds or Nearest — exactly once
// however many goroutines race to it, the policy lazyArena applies to the
// cells, so an epoch that runs no Traditional query never packs a tree.
type RTreeIndex struct {
	once sync.Once
	tree *rtree.Tree
	// pts, first and fanout are what the tree is packed from; pts must not
	// change until then, and is dropped once it is, so an index never
	// retains its caller's slice.
	pts    []geom.Point
	first  int
	fanout int
}

// NewRTreeIndex bulk-loads an STR-packed R-tree over pts with ids equal to
// slice indices.
func NewRTreeIndex(pts []geom.Point, maxEntries int) *RTreeIndex {
	x := &RTreeIndex{pts: pts, fanout: maxEntries}
	x.get()
	return x
}

// get returns the tree, packing it on the first call.
func (x *RTreeIndex) get() *rtree.Tree {
	x.once.Do(func() {
		items := make([]rtree.Item, len(x.pts)-x.first)
		for i := range items {
			p := x.pts[x.first+i]
			items[i] = rtree.Item{ID: int64(x.first + i), Rect: geom.NewRect(p.X, p.Y, p.X, p.Y)}
		}
		x.tree = rtree.BulkLoad(items, x.fanout)
		x.pts = nil
	})
	return x.tree
}

// Window calls fn for every stored point whose coordinates lie inside the
// closed rectangle q; fn returning false stops the scan. It returns the
// number of index nodes visited.
func (x *RTreeIndex) Window(q geom.Rect, fn func(id int64) bool) int {
	st := x.get().Search(q, func(id int64, _ geom.Rect) bool { return fn(id) })
	return st.NodesVisited
}

// Bounds returns the bounding rectangle of the stored points, read off the
// R-tree's root — no pass over the points; empty when nothing is stored.
func (x *RTreeIndex) Bounds() geom.Rect { return x.get().Bounds() }

// Nearest returns the stored point id closest to q; ok is false when the
// index is empty. The second return is the number of index nodes visited.
// No query calls it: it is the lookup the paper seeds Algorithm 1 with, kept
// as what the benchmark's rtree.seed_* probe measures and what the seed
// walk's tests compare against.
func (x *RTreeIndex) Nearest(q geom.Point) (id int64, nodes int, ok bool) {
	item, st, ok := x.get().NearestNeighbor(q)
	return item.ID, st.NodesVisited, ok
}
