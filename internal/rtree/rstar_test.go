package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestRStarSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 17, 200, 2000} {
		items := randomRectItems(rng, n)
		tr := New(8)
		for _, it := range items {
			tr.Insert(it.ID, it.Rect)
		}
		if err := tr.Validate(true); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for trial := 0; trial < 100; trial++ {
			q := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
			got := collect(tr, q)
			want := bruteSearch(items, q)
			if len(got) != len(want) {
				t.Fatalf("n=%d: got %d, want %d", n, len(got), len(want))
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("n=%d: missing %d", n, id)
				}
			}
		}
	}
}

func TestRStarNearestNeighbor(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items := randomPointItems(rng, 1500)
	tr := New(16)
	for _, it := range items {
		tr.Insert(it.ID, it.Rect)
	}
	for trial := 0; trial < 300; trial++ {
		q := geom.Pt(rng.Float64(), rng.Float64())
		got, _, ok := tr.NearestNeighbor(q)
		if !ok {
			t.Fatal("NN failed")
		}
		bestD := got.Rect.Dist2Point(q)
		for _, it := range items {
			if it.Rect.Dist2Point(q) < bestD {
				t.Fatalf("NN suboptimal at %v", q)
			}
		}
	}
}

func TestRStarPackingQuality(t *testing.T) {
	// Why insertion splits R* and nothing else: on uniformly random points
	// the topological split leaves much less node overlap than Guttman's
	// quadratic split did. The quadratic tree is gone; its node visits on
	// these 300 small windows (7287, when both still existed) stay as the bar.
	//
	// R*'s own figures are pinned exactly, as recorded at commit 0d5ed78
	// before overlapEnlargement stopped building rectangles: a cheaper
	// choose-subtree must choose the same subtrees, so the tree keeps its
	// height, its nodes and every window's path through them.
	const (
		quadraticNodes = 7287
		wantHeight     = 4
		wantNodes      = 1982
		wantVisits     = 4166
	)
	rng := rand.New(rand.NewSource(4))
	tr := New(16)
	for _, it := range randomPointItems(rng, 20000) {
		tr.Insert(it.ID, it.Rect)
	}
	visits := 0
	for trial := 0; trial < 300; trial++ {
		cx, cy := rng.Float64()*0.9, rng.Float64()*0.9
		q := geom.NewRect(cx, cy, cx+0.05, cy+0.05)
		visits += tr.Search(q, func(int64, geom.Rect) bool { return true }).NodesVisited
	}
	if visits > quadraticNodes {
		t.Errorf("R* split visited %d nodes, more than the quadratic split's %d", visits, quadraticNodes)
	}
	if h, n := height(tr), countNodes(tr.root); h != wantHeight || n != wantNodes || visits != wantVisits {
		t.Errorf("height %d, %d nodes, %d node visits over 300 windows; recorded %d, %d, %d",
			h, n, visits, wantHeight, wantNodes, wantVisits)
	}
}

func countNodes(n *node) int {
	total := 1
	for _, c := range n.children {
		total += countNodes(c)
	}
	return total
}

// refOverlapEnlargement is overlapEnlargement as it was written first: every
// sibling pair through Rect.Intersection and Rect.Area.
func refOverlapEnlargement(rects []geom.Rect, i int, r geom.Rect) float64 {
	grown := rects[i].Union(r)
	var before, after float64
	for j, s := range rects {
		if j == i {
			continue
		}
		before += rects[i].Intersection(s).Area()
		after += grown.Intersection(s).Area()
	}
	return after - before
}

// TestOverlapEnlargementMatchesReference demands bit-for-bit equality, not
// closeness: the value only ever feeds comparisons between siblings, and a
// last-place difference could break a tie the other way and grow another tree.
func TestOverlapEnlargementMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	unit := geom.NewRect(0.25, 0.25, 0.75, 0.75)
	pt := geom.NewRect(0.5, 0.5, 0.5, 0.5)
	families := [][]geom.Rect{
		{ // nested
			unit, geom.NewRect(0.3, 0.3, 0.7, 0.7), geom.NewRect(0.4, 0.4, 0.6, 0.6), geom.NewRect(0, 0, 1, 1),
		},
		{ // edge- and corner-touching
			unit, geom.NewRect(0.75, 0.25, 1, 0.75), geom.NewRect(0.25, 0.75, 0.75, 1),
			geom.NewRect(0.75, 0.75, 1, 1), geom.NewRect(0, 0, 0.25, 0.25),
		},
		{ // zero-area
			pt, pt, geom.NewRect(0.25, 0.5, 0.25, 0.5), geom.NewRect(0.5, 0.25, 0.5, 0.75), unit,
		},
		{unit, unit, unit}, // identical
		{geom.NewRect(0, 0, 0.1, 0.1), geom.NewRect(0.9, 0.9, 1, 1), geom.NewRect(0, 0.9, 0.1, 1)}, // disjoint
	}
	for trial := 0; trial < 200; trial++ {
		rects := make([]geom.Rect, 2+rng.Intn(16))
		for i, it := range randomRectItems(rng, len(rects)) {
			rects[i] = it.Rect
			if rng.Intn(4) == 0 { // the dynamic engine's case: point entries
				rects[i] = randomPointItems(rng, 1)[0].Rect
			}
		}
		families = append(families, rects)
	}
	for _, rects := range families {
		inserted := append([]geom.Rect{pt, unit, geom.NewRect(2, 2, 3, 3)}, rects...)
		for k := 0; k < 4; k++ {
			inserted = append(inserted, randomPointItems(rng, 1)[0].Rect, randomRectItems(rng, 1)[0].Rect)
		}
		for _, r := range inserted {
			for i := range rects {
				if got, want := overlapEnlargement(rects, i, r), refOverlapEnlargement(rects, i, r); got != want {
					t.Fatalf("overlapEnlargement(%v, %d, %v) = %v, reference %v", rects, i, r, got, want)
				}
			}
		}
	}
}

func TestRStarDuplicatePoints(t *testing.T) {
	tr := New(4)
	r := geom.NewRect(0.3, 0.3, 0.3, 0.3)
	for i := int64(0); i < 40; i++ {
		tr.Insert(i, r)
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
	if got := collect(tr, r); len(got) != 40 {
		t.Errorf("found %d, want 40", len(got))
	}
}

func BenchmarkWindowQueryInserted(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	tr := New(16)
	for i := 0; i < 100_000; i++ {
		tr.Insert(int64(i), geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cx, cy := rng.Float64()*0.9, rng.Float64()*0.9
		tr.Search(geom.NewRect(cx, cy, cx+0.1, cy+0.1), func(int64, geom.Rect) bool { return true })
	}
}
