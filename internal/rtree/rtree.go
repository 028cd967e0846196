// Package rtree implements a static R-tree over a point set, filled once by
// STR bulk loading (BulkLoad), with window (range) queries and best-first
// nearest-neighbor search.
//
// This is the index of the paper's traditional method, which issues a window
// query with the query polygon's MBR. The paper also seeds the Voronoi
// method from one nearest-neighbor query; the engines here seed it by a walk
// on the Delaunay graph instead, and NearestNeighbor remains as the lookup
// that walk is measured against. Each call reports the index nodes it
// visited, so the filtering cost of the methods can be compared.
//
// The tree indexes points, not rectangles: it holds the caller's position
// slice, never a copy of it, and a leaf is a run of int32 ids into it. Only
// internal nodes store rectangles, one per child. A tree is immutable once
// built and safe for concurrent readers; a point set that grows is packed
// anew (the dynamic engine builds one per epoch that asks).
package rtree

import (
	"fmt"

	"repro/internal/geom"
)

// DefaultMaxEntries is the fan-out used when BulkLoad is given none.
const DefaultMaxEntries = 16

// Tree is an R-tree built by BulkLoad. The zero value is not usable.
type Tree struct {
	root *node
	// pts are the indexed positions, by id; read, never written.
	pts        []geom.Point
	size       int
	maxEntries int
}

// node is 72 bytes, in the allocator's 80-byte size class.
type node struct {
	ids      []int32     // leaf only: a run of the tree's one packed id array
	rects    []geom.Rect // internal only: bounding rect per child
	children []*node     // internal only; never nil there
}

// leaf reports whether n holds ids rather than children: an internal node
// is made with its children, so only a leaf has none.
func (n *node) leaf() bool { return n.children == nil }

// bounds returns the bounding rectangle of n's points or children.
func (t *Tree) bounds(n *node) geom.Rect {
	r := geom.EmptyRect()
	for _, id := range n.ids {
		r = r.ExtendPoint(t.pts[id])
	}
	for _, c := range n.rects {
		r = r.Union(c)
	}
	return r
}

// Bounds returns the bounding rectangle of all indexed points.
func (t *Tree) Bounds() geom.Rect { return t.bounds(t.root) }

// Search calls fn for every indexed point inside the closed rectangle q; fn
// returning false stops the search. It returns the number of nodes visited.
func (t *Tree) Search(q geom.Rect, fn func(id int64) bool) (nodes int) {
	t.search(t.root, q, fn, &nodes)
	return nodes
}

func (t *Tree) search(n *node, q geom.Rect, fn func(int64) bool, nodes *int) bool {
	*nodes++
	if n.leaf() {
		for _, id := range n.ids {
			if q.ContainsPoint(t.pts[id]) && !fn(int64(id)) {
				return false
			}
		}
		return true
	}
	for i, r := range n.rects {
		if q.Intersects(r) && !t.search(n.children[i], q, fn, nodes) {
			return false
		}
	}
	return true
}

// Validate checks the structural invariants of the tree: bounding rects
// cover children, no node is overfull, no non-root node is empty, all leaves
// sit at the same depth, and the leaves hold every indexed id exactly once.
// Intended for tests.
func (t *Tree) Validate() error {
	leafDepth := -1
	seen := make(map[int32]bool, t.size)
	first := len(t.pts) - t.size
	var walk func(n *node, depth int, isRoot bool) error
	walk = func(n *node, depth int, isRoot bool) error {
		entries := len(n.ids) + len(n.children)
		if !isRoot && entries == 0 {
			return fmt.Errorf("rtree: empty non-root node")
		}
		if entries > t.maxEntries {
			return fmt.Errorf("rtree: node overfull: %d > %d", entries, t.maxEntries)
		}
		if n.leaf() {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("rtree: leaves at depths %d and %d", leafDepth, depth)
			}
			if n.rects != nil {
				return fmt.Errorf("rtree: leaf holds rectangles")
			}
			for _, id := range n.ids {
				if int(id) < first || int(id) >= len(t.pts) || seen[id] {
					return fmt.Errorf("rtree: id %d out of [%d, %d) or repeated", id, first, len(t.pts))
				}
				seen[id] = true
			}
			return nil
		}
		if len(n.ids) != 0 || len(n.children) != len(n.rects) {
			return fmt.Errorf("rtree: internal slot mismatch")
		}
		for i, c := range n.children {
			if !n.rects[i].ContainsRect(t.bounds(c)) {
				return fmt.Errorf("rtree: child bounds %v escape slot rect %v", t.bounds(c), n.rects[i])
			}
			if err := walk(c, depth+1, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0, true); err != nil {
		return err
	}
	if len(seen) != t.size {
		return fmt.Errorf("rtree: leaves hold %d ids, want %d", len(seen), t.size)
	}
	return nil
}
