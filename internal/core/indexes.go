package core

import (
	"repro/internal/geom"
	"repro/internal/rtree"
)

// RTreeIndex is the filtering index of the paper: an R-tree over the stored
// points, asked for a window by the traditional filter. (The paper also
// seeds Algorithm 1 from it; here the seed is a walk on the Delaunay graph,
// see seedWalk.)
type RTreeIndex struct {
	tree *rtree.Tree
}

// NewRTreeIndex bulk-loads an STR-packed R-tree over pts with ids equal to
// slice indices.
func NewRTreeIndex(pts []geom.Point, maxEntries int) *RTreeIndex {
	items := make([]rtree.Item, len(pts))
	for i, p := range pts {
		items[i] = rtree.Item{ID: int64(i), Rect: geom.NewRect(p.X, p.Y, p.X, p.Y)}
	}
	return &RTreeIndex{tree: rtree.BulkLoad(items, maxEntries)}
}

// Window calls fn for every stored point whose coordinates lie inside the
// closed rectangle q; fn returning false stops the scan. It returns the
// number of index nodes visited.
func (x *RTreeIndex) Window(q geom.Rect, fn func(id int64) bool) int {
	st := x.tree.Search(q, func(id int64, _ geom.Rect) bool { return fn(id) })
	return st.NodesVisited
}

// Len returns the number of stored points — user sites only, whatever
// auxiliary sites (the dynamic triangulation's fence) the data layer's id
// space carries, which makes it the engine's empty-data test.
func (x *RTreeIndex) Len() int { return x.tree.Len() }

// Bounds returns the bounding rectangle of the stored points, read off the
// R-tree's root — no pass over the points; empty when nothing is stored.
func (x *RTreeIndex) Bounds() geom.Rect { return x.tree.Bounds() }

// Nearest returns the stored point id closest to q; ok is false when the
// index is empty. The second return is the number of index nodes visited.
// No query calls it: it is the lookup the paper seeds Algorithm 1 with, kept
// as what the benchmark's rtree.seed_* probe measures and what the seed
// walk's tests compare against.
func (x *RTreeIndex) Nearest(q geom.Point) (id int64, nodes int, ok bool) {
	item, st, ok := x.tree.NearestNeighbor(q)
	return item.ID, st.NodesVisited, ok
}
