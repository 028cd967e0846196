package rtree

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// BulkLoad builds a tree from items using Sort-Tile-Recursive packing
// (Leutenegger et al. 1997): sort by center x, tile into vertical slices,
// sort each slice by center y, pack leaves bottom-up. STR produces nearly
// square, minimally overlapping leaves — the standard choice for static
// point data. The input slice is not modified. maxEntries < 4 is replaced by
// DefaultMaxEntries.
func BulkLoad(items []Item, maxEntries int) *Tree {
	if maxEntries < 4 {
		maxEntries = DefaultMaxEntries
	}
	t := &Tree{root: &node{}, size: len(items), maxEntries: maxEntries}
	if len(items) == 0 {
		return t
	}

	sorted := append([]Item(nil), items...)
	leaves := packLeaves(sorted, t.maxEntries)
	level := make([]*node, len(leaves))
	copy(level, leaves)
	for len(level) > 1 {
		level = packInternal(level, t.maxEntries)
	}
	t.root = level[0]
	return t
}

// packLeaves distributes items into leaf nodes with STR tiling.
func packLeaves(items []Item, cap int) []*node {
	n := len(items)
	leafCount := (n + cap - 1) / cap
	sliceCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	sliceSize := sliceCount * cap

	sort.Slice(items, func(i, j int) bool {
		return items[i].Rect.Center().X < items[j].Rect.Center().X
	})

	var leaves []*node
	for s := 0; s < n; s += sliceSize {
		end := s + sliceSize
		if end > n {
			end = n
		}
		slice := items[s:end]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].Rect.Center().Y < slice[j].Rect.Center().Y
		})
		for i := 0; i < len(slice); i += cap {
			j := i + cap
			if j > len(slice) {
				j = len(slice)
			}
			leaf := &node{}
			for _, it := range slice[i:j] {
				leaf.rects = append(leaf.rects, it.Rect)
				leaf.ids = append(leaf.ids, it.ID)
			}
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

// packInternal groups one tree level into parents with STR tiling.
func packInternal(children []*node, cap int) []*node {
	type cn struct {
		n *node
		b geom.Rect
	}
	cs := make([]cn, len(children))
	for i, c := range children {
		cs[i] = cn{n: c, b: c.bounds()}
	}
	parentCount := (len(cs) + cap - 1) / cap
	sliceCount := int(math.Ceil(math.Sqrt(float64(parentCount))))
	sliceSize := sliceCount * cap

	sort.Slice(cs, func(i, j int) bool {
		return cs[i].b.Center().X < cs[j].b.Center().X
	})
	var parents []*node
	for s := 0; s < len(cs); s += sliceSize {
		end := s + sliceSize
		if end > len(cs) {
			end = len(cs)
		}
		slice := cs[s:end]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].b.Center().Y < slice[j].b.Center().Y
		})
		for i := 0; i < len(slice); i += cap {
			j := i + cap
			if j > len(slice) {
				j = len(slice)
			}
			p := &node{}
			for _, c := range slice[i:j] {
				p.rects = append(p.rects, c.b)
				p.children = append(p.children, c.n)
			}
			parents = append(parents, p)
		}
	}
	return parents
}
