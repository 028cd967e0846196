package rtree

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// NearestNeighbor over extended (non-point) rectangles: MINDIST must decide
// for boxes too, including query points inside boxes (distance 0).
func TestNearestNeighborRectItems(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	items := randomRectItems(rng, 800)
	tr := BulkLoad(items, 16)
	inside := 0
	for trial := 0; trial < 200; trial++ {
		q := geom.Pt(rng.Float64(), rng.Float64())
		got, _, ok := tr.NearestNeighbor(q)
		if !ok {
			t.Fatalf("trial %d: no nearest item", trial)
		}
		want := math.Inf(1)
		for _, it := range items {
			want = math.Min(want, it.Rect.Dist2Point(q))
		}
		if d := got.Rect.Dist2Point(q); d != want {
			t.Fatalf("trial %d: nearest at %v, want %v", trial, d, want)
		}
		if want == 0 {
			inside++
		}
	}
	if inside == 0 {
		t.Fatal("no query point fell inside a box; the distance-0 case went untested")
	}
}
