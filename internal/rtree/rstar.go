package rtree

import (
	"sort"

	"repro/internal/geom"
)

// Insertion follows the R*-tree (Beckmann et al. 1990): leaf-level subtrees
// are chosen by minimum overlap enlargement, and an overflowing node splits
// topologically — the axis by minimum margin sum, then the distribution by
// minimum overlap. Forced reinsertion is not implemented; the split policy
// alone captures most of the R*-tree's packing quality for point data.

// rstarChoosePath picks the child with minimum overlap enlargement when
// the children are leaves, falling back to least area enlargement
// otherwise (the R* CHOOSESUBTREE rule).
func (t *Tree) rstarChoosePath(n *node, r geom.Rect) int {
	if !n.children[0].leaf() {
		return t.choosePath(n, r)
	}
	best := 0
	bestOverlap := overlapEnlargement(n.rects, 0, r)
	bestEnl := n.rects[0].Enlargement(r)
	bestArea := n.rects[0].Area()
	for i := 1; i < len(n.rects); i++ {
		ov := overlapEnlargement(n.rects, i, r)
		enl := n.rects[i].Enlargement(r)
		area := n.rects[i].Area()
		if ov < bestOverlap ||
			(ov == bestOverlap && enl < bestEnl) ||
			(ov == bestOverlap && enl == bestEnl && area < bestArea) {
			best, bestOverlap, bestEnl, bestArea = i, ov, enl, area
		}
	}
	return best
}

// overlapEnlargement returns how much the total overlap between rects[i]
// and its siblings grows when rects[i] is extended to include r. It runs for
// every pair of siblings on every leaf-level insert, so it computes areas
// directly (overlapArea) and skips a sibling the grown rectangle shares no
// area with: rects[i] lies inside it and shares none either, both terms are
// +0, and the sums stay bit for bit what adding them would have made.
func overlapEnlargement(rects []geom.Rect, i int, r geom.Rect) float64 {
	grown := rects[i].Union(r)
	var before, after float64
	for j, s := range rects {
		if j == i {
			continue
		}
		a := overlapArea(grown, s)
		if a == 0 {
			continue
		}
		after += a
		before += overlapArea(rects[i], s)
	}
	return after - before
}

// overlapArea is a.Intersection(b).Area() without building the rectangle:
// 0 when the two are disjoint or either is empty.
func overlapArea(a, b geom.Rect) float64 {
	w := min(a.MaxX, b.MaxX) - max(a.MinX, b.MinX)
	h := min(a.MaxY, b.MaxY) - max(a.MinY, b.MinY)
	if w < 0 || h < 0 {
		return 0
	}
	return w * h
}

// rstarSplit splits an overflowing node the tree owns with the R*
// topological split and returns the new sibling.
func (t *Tree) rstarSplit(n *node) *node {
	type slot struct {
		rect  geom.Rect
		id    int64
		child *node
	}
	slots := make([]slot, n.count())
	for i := range n.rects {
		slots[i].rect = n.rects[i]
		if n.leaf() {
			slots[i].id = n.ids[i]
		} else {
			slots[i].child = n.children[i]
		}
	}

	m := t.minEntries
	total := len(slots)

	// For one axis ordering, the candidate distributions put the first
	// m..total-m entries in the left group. marginSum scores an ordering;
	// bestDistribution returns the (overlap, area, splitIndex) optimum.
	evaluate := func(less func(a, b slot) bool) (marginSum float64, overlap, area float64, k int) {
		sort.Slice(slots, func(i, j int) bool { return less(slots[i], slots[j]) })
		// Prefix and suffix bounding rects.
		prefix := make([]geom.Rect, total+1)
		suffix := make([]geom.Rect, total+1)
		prefix[0] = geom.EmptyRect()
		suffix[total] = geom.EmptyRect()
		for i := 0; i < total; i++ {
			prefix[i+1] = prefix[i].Union(slots[i].rect)
			suffix[total-i-1] = suffix[total-i].Union(slots[total-i-1].rect)
		}
		overlap, area = -1, -1
		for split := m; split <= total-m; split++ {
			l, r := prefix[split], suffix[split]
			marginSum += l.Margin() + r.Margin()
			ov := l.Intersection(r).Area()
			ar := l.Area() + r.Area()
			if overlap < 0 || ov < overlap || (ov == overlap && ar < area) {
				overlap, area, k = ov, ar, split
			}
		}
		return marginSum, overlap, area, k
	}

	lessX := func(a, b slot) bool {
		if a.rect.MinX != b.rect.MinX {
			return a.rect.MinX < b.rect.MinX
		}
		return a.rect.MaxX < b.rect.MaxX
	}
	lessY := func(a, b slot) bool {
		if a.rect.MinY != b.rect.MinY {
			return a.rect.MinY < b.rect.MinY
		}
		return a.rect.MaxY < b.rect.MaxY
	}

	marginX, _, _, _ := evaluate(lessX)
	marginY, _, _, kY := evaluate(lessY)
	k := kY
	if marginX < marginY {
		// Re-sort on X (slots currently ordered by Y) and take X's best
		// distribution.
		_, _, _, kX := evaluate(lessX)
		k = kX
	}

	// slots[:k] stay in n; slots[k:] move to the sibling.
	sib := &node{gen: t.gen}
	n.rects = n.rects[:0]
	n.ids = n.ids[:0]
	n.children = n.children[:0]
	for i, s := range slots {
		dst := n
		if i >= k {
			dst = sib
		}
		dst.rects = append(dst.rects, s.rect)
		if n.leaf() {
			dst.ids = append(dst.ids, s.id)
		} else {
			dst.children = append(dst.children, s.child)
		}
	}
	return sib
}
