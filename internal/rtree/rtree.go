// Package rtree implements a static R-tree, filled once by STR bulk loading
// (BulkLoad), with window (range) queries and best-first nearest-neighbor
// search.
//
// This is the index both area-query methods share, exactly as in the paper:
// the traditional method issues a window query with the query polygon's
// MBR, and the Voronoi method issues one nearest-neighbor query to obtain
// its seed. Per-query instrumentation (nodes visited, entries scanned) is
// reported so the filtering cost of the two methods can be compared. A tree
// is immutable once built and safe for concurrent readers; a point set that
// grows is packed anew (the dynamic engine builds one per epoch that asks).
package rtree

import (
	"fmt"

	"repro/internal/geom"
)

// DefaultMaxEntries is the fan-out used when BulkLoad is given none.
const DefaultMaxEntries = 16

// Item is a stored spatial object: an identifier and its bounding
// rectangle. Points are stored as degenerate rectangles.
type Item struct {
	ID   int64
	Rect geom.Rect
}

// Tree is an R-tree built by BulkLoad. The zero value is not usable.
type Tree struct {
	root       *node
	size       int
	maxEntries int
}

// node is 72 bytes, in the allocator's 80-byte size class.
type node struct {
	rects    []geom.Rect // bounding rect per slot
	ids      []int64     // leaf payloads (leaf only)
	children []*node     // child pointers (internal only; never nil there)
}

// leaf reports whether n holds items rather than children: an internal node
// is made with its children, so only a leaf has none.
func (n *node) leaf() bool { return n.children == nil }

func (n *node) bounds() geom.Rect {
	r := geom.EmptyRect()
	for _, c := range n.rects {
		r = r.Union(c)
	}
	return r
}

// Bounds returns the bounding rectangle of all stored items.
func (t *Tree) Bounds() geom.Rect { return t.root.bounds() }

// QueryStats reports the work an index operation performed.
type QueryStats struct {
	NodesVisited   int // tree nodes touched
	EntriesScanned int // leaf entries tested against the query
	Results        int // matches reported
}

// Search calls fn for every item whose rectangle intersects query; fn
// returning false stops the search. It returns traversal statistics.
func (t *Tree) Search(query geom.Rect, fn func(id int64, r geom.Rect) bool) QueryStats {
	var st QueryStats
	t.search(t.root, query, fn, &st)
	return st
}

func (t *Tree) search(n *node, query geom.Rect, fn func(int64, geom.Rect) bool, st *QueryStats) bool {
	st.NodesVisited++
	if n.leaf() {
		for i, r := range n.rects {
			st.EntriesScanned++
			if query.Intersects(r) {
				st.Results++
				if !fn(n.ids[i], r) {
					return false
				}
			}
		}
		return true
	}
	for i, r := range n.rects {
		if query.Intersects(r) {
			if !t.search(n.children[i], query, fn, st) {
				return false
			}
		}
	}
	return true
}

// Validate checks the structural invariants of the tree: bounding rects
// cover children, no node is overfull, no non-root node is empty, all leaves
// sit at the same depth, and the item count matches Len. Intended for tests.
func (t *Tree) Validate() error {
	leafDepth := -1
	items := 0
	var walk func(n *node, depth int, isRoot bool) error
	walk = func(n *node, depth int, isRoot bool) error {
		if !isRoot && len(n.rects) == 0 {
			return fmt.Errorf("rtree: empty non-root node")
		}
		if len(n.rects) > t.maxEntries {
			return fmt.Errorf("rtree: node overfull: %d > %d", len(n.rects), t.maxEntries)
		}
		if n.leaf() {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("rtree: leaves at depths %d and %d", leafDepth, depth)
			}
			items += len(n.rects)
			if len(n.ids) != len(n.rects) {
				return fmt.Errorf("rtree: leaf slot mismatch")
			}
			return nil
		}
		if len(n.children) != len(n.rects) {
			return fmt.Errorf("rtree: internal slot mismatch")
		}
		for i, c := range n.children {
			if !n.rects[i].ContainsRect(c.bounds()) {
				return fmt.Errorf("rtree: child bounds %v escape slot rect %v", c.bounds(), n.rects[i])
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
	if items != t.size {
		return fmt.Errorf("rtree: item count %d != size %d", items, t.size)
	}
	return nil
}
