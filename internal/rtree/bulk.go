package rtree

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geom"
)

// BulkLoad builds a tree over the points pts[first:], each id its index in
// pts, using Sort-Tile-Recursive packing (Leutenegger et al. 1997): sort by
// x, tile into vertical slices, sort each slice by y, pack leaves bottom-up.
// STR produces nearly square, minimally overlapping leaves — the standard
// choice for static point data. The ids are packed into one int32 array, of
// which every leaf is a run. The tree keeps pts and reads it on every query:
// the caller must not change pts[first:] while the tree is in use. Ids must
// fit in an int32, as the CSR adjacency's do. maxEntries < 4 is replaced by
// DefaultMaxEntries.
func BulkLoad(pts []geom.Point, first, maxEntries int) *Tree {
	if maxEntries < 4 {
		maxEntries = DefaultMaxEntries
	}
	t := &Tree{root: &node{}, pts: pts, size: max(len(pts)-first, 0), maxEntries: maxEntries}
	if t.size == 0 {
		return t
	}
	ids := make([]int32, t.size)
	for i := range ids {
		ids[i] = int32(first + i)
	}
	level := t.packLeaves(ids)
	for len(level) > 1 {
		level = t.packInternal(level)
	}
	t.root = level[0]
	return t
}

// strSliceSize returns STR's slice size for n entries packed cap to a node:
// the entries are cut into ⌈√(nodes)⌉ vertical slices of that many nodes
// each.
func strSliceSize(n, cap int) int {
	nodes := (n + cap - 1) / cap
	return int(math.Ceil(math.Sqrt(float64(nodes)))) * cap
}

// packLeaves sorts ids in place with STR tiling and cuts it into leaves.
func (t *Tree) packLeaves(ids []int32) []*node {
	byX := func(a, b int32) int { return cmp.Compare(t.pts[a].X, t.pts[b].X) }
	byY := func(a, b int32) int { return cmp.Compare(t.pts[a].Y, t.pts[b].Y) }
	slices.SortFunc(ids, byX)
	leaves := make([]*node, 0, (len(ids)+t.maxEntries-1)/t.maxEntries)
	for slice := range slices.Chunk(ids, strSliceSize(len(ids), t.maxEntries)) {
		slices.SortFunc(slice, byY)
		for run := range slices.Chunk(slice, t.maxEntries) {
			leaves = append(leaves, &node{ids: run})
		}
	}
	return leaves
}

// packInternal groups one tree level into parents with STR tiling.
func (t *Tree) packInternal(children []*node) []*node {
	type cn struct {
		n *node
		b geom.Rect
	}
	cs := make([]cn, len(children))
	for i, c := range children {
		cs[i] = cn{n: c, b: t.bounds(c)}
	}
	slices.SortFunc(cs, func(a, b cn) int { return cmp.Compare(a.b.Center().X, b.b.Center().X) })
	var parents []*node
	for slice := range slices.Chunk(cs, strSliceSize(len(cs), t.maxEntries)) {
		slices.SortFunc(slice, func(a, b cn) int { return cmp.Compare(a.b.Center().Y, b.b.Center().Y) })
		for group := range slices.Chunk(slice, t.maxEntries) {
			p := &node{rects: make([]geom.Rect, len(group)), children: make([]*node, len(group))}
			for i, c := range group {
				p.rects[i], p.children[i] = c.b, c.n
			}
			parents = append(parents, p)
		}
	}
	return parents
}
