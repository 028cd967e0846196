package rtree

import (
	"math"
	"math/rand"
	"testing"

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
	tr := New(0)
	if tr.Len() != 0 {
		t.Error("empty tree should have Len 0")
	}
	if got := collect(tr, geom.NewRect(0, 0, 1, 1)); len(got) != 0 {
		t.Errorf("search on empty tree returned %v", got)
	}
	if _, _, ok := tr.NearestNeighbor(geom.Pt(0, 0)); ok {
		t.Error("NN on empty tree should report !ok")
	}
	if err := tr.Validate(true); err != nil {
		t.Error(err)
	}
}

func TestInsertAndSearchSmall(t *testing.T) {
	tr := New(4)
	tr.Insert(1, geom.NewRect(0, 0, 1, 1))
	tr.Insert(2, geom.NewRect(2, 2, 3, 3))
	tr.Insert(3, geom.NewRect(0.5, 0.5, 2.5, 2.5))
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
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
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if err := tr.Validate(false); err != nil {
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
	if tr.Len() != 0 {
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
	dynamic := New(8)
	for _, it := range items {
		dynamic.Insert(it.ID, it.Rect)
	}
	bulk := BulkLoad(items, 16)
	for trial := 0; trial < 500; trial++ {
		q := geom.Pt(rng.Float64()*1.4-0.2, rng.Float64()*1.4-0.2)
		wantD := math.Inf(1)
		for _, it := range items {
			if d := it.Rect.Dist2Point(q); d < wantD {
				wantD = d
			}
		}
		for name, tr := range map[string]*Tree{"dynamic": dynamic, "bulk": bulk} {
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

func TestDuplicateRects(t *testing.T) {
	tr := New(4)
	r := geom.NewRect(0.5, 0.5, 0.5, 0.5)
	for i := int64(0); i < 50; i++ {
		tr.Insert(i, r)
	}
	if got := collect(tr, r); len(got) != 50 {
		t.Errorf("found %d duplicates, want 50", len(got))
	}
	if err := tr.Validate(true); err != nil {
		t.Error(err)
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := New(16)
	for i := 0; i < 10000; i++ {
		tr.Insert(int64(i), geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()))
	}
	if err := tr.Validate(true); err != nil { // every leaf at one depth
		t.Fatal(err)
	}
	h := 1
	for n := tr.root; !n.leaf; n = n.children[0] {
		h++
	}
	// With fan-out >= 6 (min fill), 10k items fit in height <= 6.
	if h > 6 {
		t.Errorf("height = %d, suspiciously deep", h)
	}
}

func TestBulkVsDynamicSameResults(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	items := randomRectItems(rng, 1000)
	dyn := New(16)
	for _, it := range items {
		dyn.Insert(it.ID, it.Rect)
	}
	bulk := BulkLoad(items, 16)
	for trial := 0; trial < 100; trial++ {
		q := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		a, b := collect(dyn, q), collect(bulk, q)
		if len(a) != len(b) {
			t.Fatalf("dynamic found %d, bulk %d", len(a), len(b))
		}
	}
	// Bulk-loaded trees should generally answer small queries with fewer
	// node visits than insertion-built trees (packing quality).
	var dynNodes, bulkNodes int
	for trial := 0; trial < 200; trial++ {
		cx, cy := rng.Float64(), rng.Float64()
		q := geom.NewRect(cx, cy, cx+0.05, cy+0.05)
		dynNodes += dyn.Search(q, func(int64, geom.Rect) bool { return true }).NodesVisited
		bulkNodes += bulk.Search(q, func(int64, geom.Rect) bool { return true }).NodesVisited
	}
	if bulkNodes > dynNodes*2 {
		t.Errorf("bulk tree much worse than dynamic: %d vs %d node visits", bulkNodes, dynNodes)
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := New(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(int64(i), geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()))
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

func BenchmarkNearestNeighbor(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	tr := BulkLoad(randomPointItems(rng, 100_000), 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.NearestNeighbor(geom.Pt(rng.Float64(), rng.Float64()))
	}
}

func TestSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tr := New(8)
	items := randomPointItems(rng, 400)
	for _, it := range items[:250] {
		tr.Insert(it.ID, it.Rect)
	}

	snap := tr.Snapshot()
	if snap.Len() != 250 {
		t.Fatalf("snapshot Len = %d, want 250", snap.Len())
	}

	// Mutate the original: insert the rest.
	for _, it := range items[250:] {
		tr.Insert(it.ID, it.Rect)
	}

	if snap.Len() != 250 {
		t.Fatalf("snapshot Len changed to %d after live mutation", snap.Len())
	}
	if err := snap.Validate(false); err != nil {
		t.Errorf("snapshot invalid after live mutation: %v", err)
	}
	if err := tr.Validate(false); err != nil {
		t.Errorf("live tree invalid: %v", err)
	}

	// Window results on the snapshot must be exactly the pinned item set.
	q := geom.NewRect(0.2, 0.2, 0.7, 0.7)
	want := bruteSearch(items[:250], q)
	got := make(map[int64]bool)
	snap.Search(q, func(id int64, _ geom.Rect) bool {
		got[id] = true
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("snapshot search returned %d items, want %d", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("snapshot search missing id %d", id)
		}
	}

	// And the snapshot's nearest neighbor comes from the pinned set too.
	qp := geom.Pt(0.5, 0.5)
	bestID, bestD := int64(-1), math.Inf(1)
	for _, it := range items[:250] {
		if d := it.Rect.Dist2Point(qp); d < bestD {
			bestID, bestD = it.ID, d
		}
	}
	item, _, ok := snap.NearestNeighbor(qp)
	if !ok || item.ID != bestID {
		t.Errorf("snapshot NearestNeighbor = %v (ok=%v), want id %d", item, ok, bestID)
	}

	// Mutating the snapshot must not leak back into the original.
	snapSize, origSize := snap.Len(), tr.Len()
	snap.Insert(9999, geom.NewRect(0.99, 0.99, 0.99, 0.99))
	if snap.Len() != snapSize+1 || tr.Len() != origSize {
		t.Errorf("snapshot insert leaked: snap %d orig %d", snap.Len(), tr.Len())
	}
}
