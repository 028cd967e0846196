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
	// these 300 small windows (7287, against R*'s 4166, when both still
	// existed) stay as the bar.
	const quadraticNodes = 7287
	rng := rand.New(rand.NewSource(4))
	tr := New(16)
	for _, it := range randomPointItems(rng, 20000) {
		tr.Insert(it.ID, it.Rect)
	}
	nodes := 0
	for trial := 0; trial < 300; trial++ {
		cx, cy := rng.Float64()*0.9, rng.Float64()*0.9
		q := geom.NewRect(cx, cy, cx+0.05, cy+0.05)
		nodes += tr.Search(q, func(int64, geom.Rect) bool { return true }).NodesVisited
	}
	t.Logf("node visits over 300 queries: %d", nodes)
	if nodes > quadraticNodes {
		t.Errorf("R* split visited %d nodes, more than the quadratic split's %d", nodes, quadraticNodes)
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
