// Package rtree implements an R-tree with the two ways of filling one that
// the engines use — STR bulk loading for a fixed point set, R*-split
// insertion for a growing one — plus window (range) queries and best-first
// nearest-neighbor search.
//
// This is the index both area-query methods share, exactly as in the paper:
// the traditional method issues a window query with the query polygon's
// MBR, and the Voronoi method issues one nearest-neighbor query to obtain
// its seed. Per-query instrumentation (nodes visited, entries scanned) is
// reported so the filtering cost of the two methods can be compared.
package rtree

import (
	"fmt"
	"sync/atomic"

	"repro/internal/geom"
)

// DefaultMaxEntries is the fan-out used when a constructor is given none.
// The minimum fill follows Guttman's 40% guideline.
const DefaultMaxEntries = 16

// Item is a stored spatial object: an identifier and its bounding
// rectangle. Points are stored as degenerate rectangles.
type Item struct {
	ID   int64
	Rect geom.Rect
}

// Tree is an R-tree. The zero value is not usable; construct with New or
// BulkLoad. Not safe for concurrent mutation; concurrent readers are safe
// in the absence of writers.
type Tree struct {
	root       *node
	size       int
	maxEntries int
	minEntries int

	// gen is the generation this tree writes in place: a node carrying it
	// was made by this tree since its last Snapshot and no other tree
	// reaches it. Any other node may be shared with a snapshot and is
	// copied before it is written (own). gens hands out generations to
	// every tree of one Snapshot family — atomically, the trees being
	// independent in every other respect; a uint64 taking two steps per
	// Snapshot does not wrap.
	gen  uint64
	gens *atomic.Uint64
}

// node is 80 bytes, a size class of its own; a field more and it takes 96.
type node struct {
	gen      uint64      // the Tree.gen that may write this node in place
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

func (n *node) count() int { return len(n.rects) }

// New returns an empty tree with the given fan-out, to be grown by Insert;
// maxEntries < 4 is replaced by the default.
func New(maxEntries int) *Tree {
	if maxEntries < 4 {
		maxEntries = DefaultMaxEntries
	}
	min := maxEntries * 2 / 5
	if min < 2 {
		min = 2
	}
	return &Tree{
		root:       &node{},
		maxEntries: maxEntries,
		minEntries: min,
		gens:       new(atomic.Uint64),
	}
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Snapshot returns an independent view of the tree: searches and
// nearest-neighbor queries on the snapshot see exactly the items present
// at snapshot time, unaffected by later Insert calls on the original (and
// vice versa). It costs O(1): the snapshot shares every node, and both
// trees move to a generation no node carries yet, so whichever is inserted
// into next copies the one root-to-leaf path it is about to write —
// O(height) nodes per Insert, nothing per node that stays as it was.
// Moving t to its new generation makes Snapshot a write to t: serialize it
// with Insert and with other Snapshot calls on t. Concurrent readers of the
// resulting snapshot need no further synchronization since nothing writes a
// node they can reach.
func (t *Tree) Snapshot() *Tree {
	c := *t
	t.gen = t.gens.Add(1)
	c.gen = t.gens.Add(1)
	return &c
}

// own returns n when t may write it in place, and otherwise a copy that t
// may: same entries, in fresh backing arrays with room for the one entry an
// insert adds before a split, so that no append lands in an array a
// snapshot reads. The caller stores the result where it found n.
func (t *Tree) own(n *node) *node {
	if n.gen == t.gen {
		return n
	}
	c := &node{
		gen:   t.gen,
		rects: append(make([]geom.Rect, 0, t.maxEntries+1), n.rects...),
	}
	if n.leaf() {
		c.ids = append(make([]int64, 0, t.maxEntries+1), n.ids...)
	} else {
		c.children = append(make([]*node, 0, t.maxEntries+1), n.children...)
	}
	return c
}

// Bounds returns the bounding rectangle of all stored items.
func (t *Tree) Bounds() geom.Rect { return t.root.bounds() }

// Insert adds an item to the tree. Subtrees are chosen and overflowing
// nodes split by the R*-tree rules (rstar.go).
func (t *Tree) Insert(id int64, r geom.Rect) {
	t.size++
	t.root = t.own(t.root)
	if sib := t.insertRec(t.root, id, r); sib != nil {
		old := t.root
		t.root = &node{
			gen:      t.gen,
			rects:    []geom.Rect{old.bounds(), sib.bounds()},
			children: []*node{old, sib},
		}
	}
}

// insertRec descends to the chosen leaf, inserts, and propagates splits
// back up the recursion; it returns the new sibling when n split. The
// caller owns n; each child is owned before the descent enters it.
func (t *Tree) insertRec(n *node, id int64, r geom.Rect) *node {
	if n.leaf() {
		n.rects = append(n.rects, r)
		n.ids = append(n.ids, id)
	} else {
		i := t.rstarChoosePath(n, r)
		n.children[i] = t.own(n.children[i])
		if sib := t.insertRec(n.children[i], id, r); sib != nil {
			n.rects[i] = n.children[i].bounds()
			n.rects = append(n.rects, sib.bounds())
			n.children = append(n.children, sib)
		} else {
			n.rects[i] = n.rects[i].Union(r)
		}
	}
	if n.count() > t.maxEntries {
		return t.rstarSplit(n)
	}
	return nil
}

// choosePath picks the child of n that needs least enlargement to include
// r, breaking ties by smaller area.
func (t *Tree) choosePath(n *node, r geom.Rect) int {
	best := 0
	bestEnl := n.rects[0].Enlargement(r)
	bestArea := n.rects[0].Area()
	for i := 1; i < len(n.rects); i++ {
		enl := n.rects[i].Enlargement(r)
		area := n.rects[i].Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

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
// cover children, all leaves at the same depth, the item count matches
// Len, no node carries a generation newer than the tree's or than its
// parent's (path copying owns a parent before its child, so a newer child
// means a snapshot can reach a node its tree writes in place), and — when
// checkMinFill is set — non-root nodes respect the minimum fill
// (bulk-loaded trees may pack trailing nodes below it). Intended for
// tests.
func (t *Tree) Validate(checkMinFill bool) error {
	leafDepth := -1
	items := 0
	var walk func(n *node, depth int, isRoot bool) error
	walk = func(n *node, depth int, isRoot bool) error {
		if n.gen > t.gen {
			return fmt.Errorf("rtree: node of generation %d in a tree of generation %d", n.gen, t.gen)
		}
		if !isRoot && checkMinFill {
			if n.count() < t.minEntries {
				return fmt.Errorf("rtree: node underfull: %d < %d", n.count(), t.minEntries)
			}
		}
		if !isRoot && n.count() == 0 {
			return fmt.Errorf("rtree: empty non-root node")
		}
		if n.count() > t.maxEntries {
			return fmt.Errorf("rtree: node overfull: %d > %d", n.count(), t.maxEntries)
		}
		if n.leaf() {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("rtree: leaves at depths %d and %d", leafDepth, depth)
			}
			items += n.count()
			if len(n.ids) != len(n.rects) {
				return fmt.Errorf("rtree: leaf slot mismatch")
			}
			return nil
		}
		if len(n.children) != len(n.rects) {
			return fmt.Errorf("rtree: internal slot mismatch")
		}
		for i, c := range n.children {
			if c.gen > n.gen {
				return fmt.Errorf("rtree: child of generation %d under a parent of generation %d", c.gen, n.gen)
			}
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
