package core

import (
	"repro/internal/geom"
	"repro/internal/rtree"
)

// RTreeIndex adapts an R-tree of points to the SpatialIndex interface.
// This is the index the paper uses for both methods.
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

// Tree exposes the underlying R-tree.
func (x *RTreeIndex) Tree() *rtree.Tree { return x.tree }

// Window implements SpatialIndex.
func (x *RTreeIndex) Window(q geom.Rect, fn func(id int64) bool) int {
	st := x.tree.Search(q, func(id int64, _ geom.Rect) bool { return fn(id) })
	return st.NodesVisited
}

// Nearest implements SpatialIndex.
func (x *RTreeIndex) Nearest(q geom.Point) (int64, int, bool) {
	item, st, ok := x.tree.NearestNeighbor(q)
	return item.ID, st.NodesVisited, ok
}

// Interface conformance checks.
var (
	_ SpatialIndex = (*RTreeIndex)(nil)
	_ SpatialIndex = dynamicIndex{}
	_ DataAccess   = (*MemoryData)(nil)
	_ DataAccess   = (*StoreData)(nil)
	_ DataAccess   = (*DynamicData)(nil)
)
