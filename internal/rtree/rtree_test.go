package rtree

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/geom"
)

func randomPoints(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	return pts
}

// bruteSearch is the oracle for window queries: a scan of pts[first:]
// against the closed rectangle q.
func bruteSearch(pts []geom.Point, first int, q geom.Rect) map[int64]bool {
	out := make(map[int64]bool)
	for i := first; i < len(pts); i++ {
		if q.ContainsPoint(pts[i]) {
			out[int64(i)] = true
		}
	}
	return out
}

func collect(t *Tree, q geom.Rect) map[int64]bool {
	out := make(map[int64]bool)
	t.Search(q, func(id int64) bool {
		out[id] = true
		return true
	})
	return out
}

// bruteNearest is the oracle for NearestNeighbor: the least squared
// distance from q to any of pts.
func bruteNearest(pts []geom.Point, q geom.Point) float64 {
	d := math.Inf(1)
	for _, p := range pts {
		d = math.Min(d, p.Dist2(q))
	}
	return d
}

func TestEmptyTree(t *testing.T) {
	tr := BulkLoad(nil, 0, 0)
	if tr.size != 0 {
		t.Error("empty tree should have Len 0")
	}
	if got := collect(tr, geom.NewRect(0, 0, 1, 1)); len(got) != 0 {
		t.Errorf("search on empty tree returned %v", got)
	}
	if _, _, ok := tr.NearestNeighbor(geom.Pt(0, 0)); ok {
		t.Error("NN on empty tree should report !ok")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

// TestInsertAndSearchSmall packs the points after the first two of a slice:
// ids are positions in the whole slice, the two before first are never
// reported, and a point on the window's edge is inside it.
func TestInsertAndSearchSmall(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(1, 1), geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(1.1, 0.9)}
	tr := BulkLoad(pts, 2, 4)
	if tr.size != 3 {
		t.Fatalf("Len = %d", tr.size)
	}
	got := collect(tr, geom.NewRect(0.9, 0.9, 1.1, 1.1))
	if !got[2] || !got[4] || len(got) != 2 {
		t.Errorf("search = %v, want {2,4}", got)
	}
	if id, _, ok := tr.NearestNeighbor(geom.Pt(0, 0)); !ok || id != 2 {
		t.Errorf("NearestNeighbor = %d (ok=%v), want 2", id, ok)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 5, 17, 100, 1000} {
		pts := randomPoints(rng, n)
		tr := BulkLoad(pts, 0, 8)
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for trial := 0; trial < 100; trial++ {
			q := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
			got := collect(tr, q)
			want := bruteSearch(pts, 0, q)
			if len(got) != len(want) {
				t.Fatalf("n=%d query %v: got %d results, want %d", n, q, len(got), len(want))
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("n=%d query %v: missing id %d", n, q, id)
				}
			}
		}
	}
}

func TestBulkLoadMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 16, 17, 256, 5000} {
		pts := randomPoints(rng, n)
		tr := BulkLoad(pts, 0, 16)
		if tr.size != n {
			t.Fatalf("n=%d: Len = %d", n, tr.size)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for trial := 0; trial < 50; trial++ {
			cx, cy := rng.Float64(), rng.Float64()
			q := geom.NewRect(cx, cy, cx+0.2, cy+0.2)
			got := collect(tr, q)
			want := bruteSearch(pts, 0, q)
			if len(got) != len(want) {
				t.Fatalf("n=%d: got %d results, want %d", n, len(got), len(want))
			}
		}
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	// A slice of points all below first — a dynamic epoch's fence sites
	// and nothing else — packs no id.
	tr := BulkLoad([]geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.2, 0.7)}, 2, 16)
	if tr.size != 0 {
		t.Error("empty bulk load should be empty")
	}
	if got := collect(tr, geom.NewRect(0, 0, 1, 1)); len(got) != 0 {
		t.Error("search should find nothing")
	}
	if _, _, ok := tr.NearestNeighbor(geom.Pt(0.5, 0.5)); ok {
		t.Error("NN on empty tree should report !ok")
	}
}

func TestSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := BulkLoad(randomPoints(rng, 500), 0, 16)
	calls := 0
	tr.Search(geom.NewRect(0, 0, 1, 1), func(int64) bool {
		calls++
		return calls < 10
	})
	if calls != 10 {
		t.Errorf("early stop after %d calls, want 10", calls)
	}
}

func TestSearchStats(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := BulkLoad(randomPoints(rng, 2000), 0, 16)
	found := 0
	nodes := tr.Search(geom.NewRect(0.4, 0.4, 0.6, 0.6), func(int64) bool { found++; return true })
	if found == 0 || nodes == 0 {
		t.Errorf("implausible search: %d results over %d nodes", found, nodes)
	}
	// A tiny query should visit far fewer nodes than a full scan.
	all := 0
	full := tr.Search(tr.Bounds(), func(int64) bool { all++; return true })
	if nodes >= full {
		t.Errorf("selective query visited %d nodes, full scan %d", nodes, full)
	}
	if all != 2000 {
		t.Errorf("full scan found %d, want 2000", all)
	}
}

func TestNearestNeighborMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 2000)
	trees := map[string]*Tree{"fan-out 8": BulkLoad(pts, 0, 8), "fan-out 16": BulkLoad(pts, 0, 16)}
	for trial := 0; trial < 500; trial++ {
		q := geom.Pt(rng.Float64()*1.4-0.2, rng.Float64()*1.4-0.2)
		wantD := bruteNearest(pts, q)
		for name, tr := range trees {
			id, _, ok := tr.NearestNeighbor(q)
			if !ok {
				t.Fatalf("%s: no NN", name)
			}
			if d := pts[id].Dist2(q); d != wantD {
				t.Fatalf("%s: NN dist %v, want %v", name, d, wantD)
			}
		}
	}
}

// TestDuplicateRects packs 50 copies of one point: every leaf and every
// internal slot has the same rectangle, and a window on it finds them all.
func TestDuplicateRects(t *testing.T) {
	p := geom.Pt(0.5, 0.5)
	pts := make([]geom.Point, 50)
	for i := range pts {
		pts[i] = p
	}
	tr := BulkLoad(pts, 0, 4)
	if got := collect(tr, geom.NewRect(p.X, p.Y, p.X, p.Y)); len(got) != 50 {
		t.Errorf("found %d duplicates, want 50", len(got))
	}
	if id, _, ok := tr.NearestNeighbor(p); !ok || pts[id] != p {
		t.Errorf("NearestNeighbor = %d (ok=%v), want a copy of %v", id, ok, p)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

// height returns the number of levels of tr, the leaves' included.
func height(tr *Tree) int {
	h := 1
	for n := tr.root; !n.leaf(); n = n.children[0] {
		h++
	}
	return h
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := BulkLoad(randomPoints(rng, 10000), 0, 16)
	if err := tr.Validate(); err != nil { // every leaf at one depth
		t.Fatal(err)
	}
	// STR fills every node but the last of each slice: 10k points at fan-out
	// 16 pack into 625 leaves under 40, 3 and 1 nodes, the least height.
	if h := height(tr); h != 4 {
		t.Errorf("height = %d, want 4", h)
	}
}

func BenchmarkBulkLoad100k(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := randomPoints(rng, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BulkLoad(pts, 0, 16)
	}
}

func BenchmarkWindowQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tr := BulkLoad(randomPoints(rng, 100_000), 0, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cx, cy := rng.Float64()*0.9, rng.Float64()*0.9
		tr.Search(geom.NewRect(cx, cy, cx+0.1, cy+0.1), func(int64) bool { return true })
	}
}

func BenchmarkNNQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	tr := BulkLoad(randomPoints(rng, 100_000), 0, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.NearestNeighbor(geom.Pt(rng.Float64(), rng.Float64()))
	}
}

// TestNodeFitsThe80ByteSizeClass pins the node layout: three slice headers,
// 72 bytes, in the allocator's 80-byte class. Two more words — a leaf flag
// beside the children, say — round every node up to the 96-byte class.
func TestNodeFitsThe80ByteSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got > 80 {
		t.Fatalf("node is %d bytes, want at most 80", got)
	}
}
