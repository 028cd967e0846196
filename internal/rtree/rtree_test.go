package rtree

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/geom"
)

func pointItem(id int64, x, y float64) Item {
	return Item{ID: id, Rect: geom.NewRect(x, y, x, y)}
}

func randomPointItems(rng *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = pointItem(int64(i), rng.Float64(), rng.Float64())
	}
	return items
}

func randomRectItems(rng *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		x, y := rng.Float64(), rng.Float64()
		items[i] = Item{ID: int64(i), Rect: geom.NewRect(x, y, x+rng.Float64()*0.05, y+rng.Float64()*0.05)}
	}
	return items
}

// bruteSearch is the oracle for window queries.
func bruteSearch(items []Item, q geom.Rect) map[int64]bool {
	out := make(map[int64]bool)
	for _, it := range items {
		if q.Intersects(it.Rect) {
			out[it.ID] = true
		}
	}
	return out
}

func collect(t *Tree, q geom.Rect) map[int64]bool {
	out := make(map[int64]bool)
	t.Search(q, func(id int64, _ geom.Rect) bool {
		out[id] = true
		return true
	})
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := BulkLoad(nil, 0)
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

func TestInsertAndSearchSmall(t *testing.T) {
	tr := BulkLoad([]Item{
		{1, geom.NewRect(0, 0, 1, 1)},
		{2, geom.NewRect(2, 2, 3, 3)},
		{3, geom.NewRect(0.5, 0.5, 2.5, 2.5)},
	}, 4)
	if tr.size != 3 {
		t.Fatalf("Len = %d", tr.size)
	}
	got := collect(tr, geom.NewRect(0.9, 0.9, 1.1, 1.1))
	if !got[1] || !got[3] || got[2] {
		t.Errorf("search = %v, want {1,3}", got)
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 5, 17, 100, 1000} {
		items := randomRectItems(rng, n)
		tr := BulkLoad(items, 8)
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for trial := 0; trial < 100; trial++ {
			q := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
			got := collect(tr, q)
			want := bruteSearch(items, q)
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
		items := randomPointItems(rng, n)
		tr := BulkLoad(items, 16)
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
			want := bruteSearch(items, q)
			if len(got) != len(want) {
				t.Fatalf("n=%d: got %d results, want %d", n, len(got), len(want))
			}
		}
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	tr := BulkLoad(nil, 16)
	if tr.size != 0 {
		t.Error("empty bulk load should be empty")
	}
	if got := collect(tr, geom.NewRect(0, 0, 1, 1)); len(got) != 0 {
		t.Error("search should find nothing")
	}
}

func TestSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := BulkLoad(randomPointItems(rng, 500), 16)
	calls := 0
	tr.Search(geom.NewRect(0, 0, 1, 1), func(int64, geom.Rect) bool {
		calls++
		return calls < 10
	})
	if calls != 10 {
		t.Errorf("early stop after %d calls, want 10", calls)
	}
}

func TestSearchStats(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := BulkLoad(randomPointItems(rng, 2000), 16)
	st := tr.Search(geom.NewRect(0.4, 0.4, 0.6, 0.6), func(int64, geom.Rect) bool { return true })
	if st.Results == 0 || st.NodesVisited == 0 || st.EntriesScanned < st.Results {
		t.Errorf("implausible stats: %+v", st)
	}
	// A tiny query should visit far fewer nodes than a full scan.
	full := tr.Search(tr.Bounds(), func(int64, geom.Rect) bool { return true })
	if st.NodesVisited >= full.NodesVisited {
		t.Errorf("selective query visited %d nodes, full scan %d", st.NodesVisited, full.NodesVisited)
	}
	if full.Results != 2000 {
		t.Errorf("full scan found %d, want 2000", full.Results)
	}
}

func TestNearestNeighborMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := randomPointItems(rng, 2000)
	trees := map[string]*Tree{"fan-out 8": BulkLoad(items, 8), "fan-out 16": BulkLoad(items, 16)}
	for trial := 0; trial < 500; trial++ {
		q := geom.Pt(rng.Float64()*1.4-0.2, rng.Float64()*1.4-0.2)
		wantD := math.Inf(1)
		for _, it := range items {
			if d := it.Rect.Dist2Point(q); d < wantD {
				wantD = d
			}
		}
		for name, tr := range trees {
			got, _, ok := tr.NearestNeighbor(q)
			if !ok {
				t.Fatalf("%s: no NN", name)
			}
			if got.Rect.Dist2Point(q) != wantD {
				t.Fatalf("%s: NN dist %v, want %v", name, got.Rect.Dist2Point(q), wantD)
			}
		}
	}
}

// TestDuplicateRects packs 50 copies of one point: every leaf and every
// internal slot has the same rectangle, and a window on it finds them all.
func TestDuplicateRects(t *testing.T) {
	r := geom.NewRect(0.5, 0.5, 0.5, 0.5)
	items := make([]Item, 50)
	for i := range items {
		items[i] = Item{ID: int64(i), Rect: r}
	}
	tr := BulkLoad(items, 4)
	if got := collect(tr, r); len(got) != 50 {
		t.Errorf("found %d duplicates, want 50", len(got))
	}
	if nn, _, ok := tr.NearestNeighbor(geom.Pt(0.5, 0.5)); !ok || nn.Rect != r {
		t.Errorf("NearestNeighbor = %v (ok=%v), want a copy of %v", nn, ok, r)
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
	tr := BulkLoad(randomRectItems(rng, 10000), 16)
	if err := tr.Validate(); err != nil { // every leaf at one depth
		t.Fatal(err)
	}
	// STR fills every node but the last of each slice: 10k items at fan-out
	// 16 pack into 625 leaves under 40, 3 and 1 nodes, the least height.
	if h := height(tr); h != 4 {
		t.Errorf("height = %d, want 4", h)
	}
}

func BenchmarkBulkLoad100k(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	items := randomPointItems(rng, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BulkLoad(items, 16)
	}
}

func BenchmarkWindowQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tr := BulkLoad(randomPointItems(rng, 100_000), 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cx, cy := rng.Float64()*0.9, rng.Float64()*0.9
		tr.Search(geom.NewRect(cx, cy, cx+0.1, cy+0.1), func(int64, geom.Rect) bool { return true })
	}
}

func BenchmarkNNQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	tr := BulkLoad(randomPointItems(rng, 100_000), 16)
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
