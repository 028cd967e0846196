package rtree

import (
	"math"

	"repro/internal/geom"
)

// nnEntry is one frontier element of the best-first traversal: the node n
// itself (slot < 0) or the leaf item in n's slot-th slot, keyed by MINDIST
// to the query point. It holds no interface value and no copied rectangle,
// so the frontier is a flat slice of 24-byte values.
type nnEntry struct {
	dist2 float64
	n     *node
	slot  int32
	seq   uint32 // push order; the last tie-break
}

// before is the traversal's total order: nearer first; at equal distance an
// item before a node (a node no nearer than an item cannot hold a nearer
// one), then push order. Being total, it fixes the pop sequence whatever
// else the frontier holds — which is what lets the k = 1 search keep items
// and hopeless nodes out of the heap and still visit the same nodes, in the
// same order, as the full search.
func (a *nnEntry) before(b *nnEntry) bool {
	if a.dist2 != b.dist2 {
		return a.dist2 < b.dist2
	}
	if ai, bi := a.slot >= 0, b.slot >= 0; ai != bi {
		return ai
	}
	return a.seq < b.seq
}

// nnStackEntries sizes the frontier's stack buffer (4.5 KiB). A
// nearest-neighbor search pushes only nodes nearer than the best item met,
// which at fan-out 16 is every child on the way down to the first leaf and
// few after it: over 200k points the frontier peaks at 50 to 80 entries and
// at 139 in the worst of 20 000 lookups. A frontier that does outgrow the
// buffer — any large k — spills to the heap through append.
const nnStackEntries = 192

// nnPush adds x to the binary min-heap h (ordered by nnEntry.before) and
// returns the extended heap. The heap travels by value so a caller's stack
// buffer can back it.
//
//vaq:noalloc
func nnPush(h []nnEntry, x nnEntry) []nnEntry {
	h = append(h, x)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h[j].before(&h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

// nnPop removes the first entry of the non-empty heap h and returns it with
// the shortened heap.
//
//vaq:noalloc
func nnPop(h []nnEntry) (nnEntry, []nnEntry) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].before(&h[j]) {
			j = r
		}
		if !h[j].before(&h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return top, h
}

// NearestNeighbor returns the stored item closest to q (by MINDIST of its
// rectangle; for point data this is the true nearest point). ok is false
// for an empty tree. It is KNearest(q, 1) without the result slice, and
// allocates nothing.
//
//vaq:noalloc
func (t *Tree) NearestNeighbor(q geom.Point) (item Item, stats QueryStats, ok bool) {
	var one [1]Item
	items, st := t.bestFirst(q, 1, one[:0])
	if len(items) == 0 {
		return Item{}, st, false
	}
	return items[0], st, true
}

// KNearest returns up to k stored items in increasing distance from q,
// using best-first search (Hjaltason & Samet). Items at equal distance come
// in the order the traversal met them. It also reports traversal
// statistics.
func (t *Tree) KNearest(q geom.Point, k int) ([]Item, QueryStats) {
	if k <= 0 || t.size == 0 {
		return nil, QueryStats{}
	}
	return t.bestFirst(q, k, make([]Item, 0, min(k, t.size)))
}

// bestFirst is the one traversal behind KNearest and NearestNeighbor: pop
// the nearest frontier entry, report it if it is an item, expand it if it
// is a node. With k == 1 items never enter the heap — best tracks the
// nearest one met — and only nodes nearer than best are pushed, so the
// frontier stays within its stack buffer; the search ends when the nearest
// remaining node is no nearer than best.
//
//vaq:noalloc
func (t *Tree) bestFirst(q geom.Point, k int, out []Item) ([]Item, QueryStats) {
	var st QueryStats
	if t.size == 0 {
		return out, st
	}
	var buf [nnStackEntries]nnEntry
	h := nnPush(buf[:0], nnEntry{n: t.root, slot: -1})
	seq := uint32(1)
	best := nnEntry{dist2: math.Inf(1)} // stays +Inf when k > 1
	for len(h) > 0 {
		var e nnEntry
		e, h = nnPop(h)
		if e.slot >= 0 {
			out = append(out, Item{ID: e.n.ids[e.slot], Rect: e.n.rects[e.slot]})
			st.Results++
			if len(out) == k {
				return out, st
			}
			continue
		}
		if e.dist2 >= best.dist2 {
			break
		}
		n := e.n
		st.NodesVisited++
		if n.leaf {
			st.EntriesScanned += len(n.rects)
			for i := range n.rects {
				d := n.rects[i].Dist2Point(q)
				if k > 1 {
					h = nnPush(h, nnEntry{dist2: d, n: n, slot: int32(i), seq: seq})
					seq++
				} else if d < best.dist2 {
					best = nnEntry{dist2: d, n: n, slot: int32(i)}
				}
			}
			continue
		}
		for i := range n.rects {
			if d := n.rects[i].Dist2Point(q); d < best.dist2 {
				h = nnPush(h, nnEntry{dist2: d, n: n.children[i], slot: -1, seq: seq})
				seq++
			}
		}
	}
	if best.n != nil {
		out = append(out, Item{ID: best.n.ids[best.slot], Rect: best.n.rects[best.slot]})
		st.Results++
	}
	return out, st
}
