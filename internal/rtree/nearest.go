package rtree

import (
	"math"

	"repro/internal/geom"
)

// nnEntry is one frontier element of the best-first traversal: a node keyed
// by MINDIST to the query point. It holds no interface value and no copied
// rectangle, so the frontier is a flat slice of 24-byte values.
type nnEntry struct {
	dist2 float64
	n     *node
	seq   uint32 // push order; the tie-break
}

// before is the traversal's total order: nearer first, then push order.
// Being total, it fixes the pop sequence — and with it the nodes a search
// visits — whatever the heap's mechanics.
func (a *nnEntry) before(b *nnEntry) bool {
	if a.dist2 != b.dist2 {
		return a.dist2 < b.dist2
	}
	return a.seq < b.seq
}

// nnStackEntries sizes the frontier's stack buffer (4.5 KiB). A
// nearest-neighbor search pushes only nodes nearer than the best point met,
// which at fan-out 16 is every child on the way down to the first leaf and
// few after it: over 200k points the frontier peaks at 50 to 80 entries and
// at 139 in the worst of 20 000 lookups. A frontier that does outgrow the
// buffer spills to the heap through append.
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

// NearestNeighbor returns the id of the indexed point closest to q and the
// number of nodes visited, using best-first search (Hjaltason & Samet): pop
// the nearest frontier node, scan it if it is a leaf, push its children if it
// is not. Points never enter the heap — best tracks the nearest one met — and
// only nodes nearer than best are pushed, so the frontier stays within its
// stack buffer and nothing is allocated; the search ends when the nearest
// remaining node is no nearer than best. Of points at one distance, the
// first met wins. ok is false for an empty tree.
//
//vaq:noalloc
func (t *Tree) NearestNeighbor(q geom.Point) (id int64, nodes int, ok bool) {
	if t.size == 0 {
		return 0, 0, false
	}
	var buf [nnStackEntries]nnEntry
	h := nnPush(buf[:0], nnEntry{n: t.root})
	seq := uint32(1)
	best := math.Inf(1)
	bestID := int32(-1)
	for len(h) > 0 {
		var e nnEntry
		e, h = nnPop(h)
		if e.dist2 >= best {
			break
		}
		n := e.n
		nodes++
		if n.leaf() {
			for _, id := range n.ids {
				if d := t.pts[id].Dist2(q); d < best {
					best, bestID = d, id
				}
			}
			continue
		}
		for i := range n.rects {
			if d := n.rects[i].Dist2Point(q); d < best {
				h = nnPush(h, nnEntry{dist2: d, n: n.children[i], seq: seq})
				seq++
			}
		}
	}
	return int64(bestID), nodes, bestID >= 0
}
