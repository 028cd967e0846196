package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
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
	tr := New(16)
	for i := 0; i < 10000; i++ {
		tr.Insert(int64(i), geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()))
	}
	if err := tr.Validate(true); err != nil { // every leaf at one depth
		t.Fatal(err)
	}
	// With fan-out >= 6 (min fill), 10k items fit in height <= 6.
	if h := height(tr); h > 6 {
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

func BenchmarkNNQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	tr := BulkLoad(randomPointItems(rng, 100_000), 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.NearestNeighbor(geom.Pt(rng.Float64(), rng.Float64()))
	}
}

// checkAgainstBruteForce compares an insertion-built tr with brute force over
// items, the set it must hold: Len, Validate, a window over everything,
// random windows and nearest neighbors.
func checkAgainstBruteForce(t *testing.T, name string, tr *Tree, items []Item, rng *rand.Rand) {
	t.Helper()
	if tr.Len() != len(items) {
		t.Fatalf("%s: Len = %d, want %d", name, tr.Len(), len(items))
	}
	if err := tr.Validate(true); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for trial := 0; trial < 40; trial++ {
		q := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		if trial == 0 {
			q = geom.NewRect(-1, -1, 2, 2)
		}
		got, want := collect(tr, q), bruteSearch(items, q)
		if len(got) != len(want) {
			t.Fatalf("%s: window %v returned %d items, want %d", name, q, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("%s: window %v misses id %d", name, q, id)
			}
		}
		p := geom.Pt(rng.Float64(), rng.Float64())
		wantD := math.Inf(1)
		for _, it := range items {
			wantD = math.Min(wantD, it.Rect.Dist2Point(p))
		}
		nn, _, ok := tr.NearestNeighbor(p)
		if ok != (len(items) > 0) || (ok && nn.Rect.Dist2Point(p) != wantD) {
			t.Fatalf("%s: NearestNeighbor(%v) = %v (ok=%v), want distance² %v", name, p, nn, ok, wantD)
		}
	}
}

// TestSnapshotIsolation inserts into each side of a Snapshot in turn and
// checks both trees against their own item sets after each: the two share
// every node neither has written since, so a write that skipped its copy
// shows up in the other tree's answers, not in its Len.
func TestSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tr := New(8)
	items := randomPointItems(rng, 1400)
	liveItems, base := items[:1100], items[:1000]
	for _, it := range base {
		tr.Insert(it.ID, it.Rect)
	}
	snap := tr.Snapshot()
	checkAgainstBruteForce(t, "fresh snapshot", snap, base, rng)

	// Mutate the original.
	for _, it := range liveItems[len(base):] {
		tr.Insert(it.ID, it.Rect)
	}
	checkAgainstBruteForce(t, "snapshot after live inserts", snap, base, rng)
	checkAgainstBruteForce(t, "live tree after its inserts", tr, liveItems, rng)

	// Mutate the snapshot, with more inserts than the original took, so
	// they reach leaves the original has not copied.
	snapItems := append(append([]Item(nil), base...), items[len(liveItems):]...)
	for _, it := range snapItems[len(base):] {
		snap.Insert(it.ID, it.Rect)
	}
	checkAgainstBruteForce(t, "snapshot after its inserts", snap, snapItems, rng)
	checkAgainstBruteForce(t, "live tree after snapshot inserts", tr, liveItems, rng)
}

// TestSnapshotChain takes a snapshot every 1-7 inserts while a tree grows
// from empty to past its second root split. Every snapshot shares nodes
// with its neighbors in the chain; at the end each must still hold exactly
// the prefix it pinned.
func TestSnapshotChain(t *testing.T) {
	for _, fanout := range []int{4, 16} {
		rng := rand.New(rand.NewSource(int64(fanout)))
		tr := New(fanout)
		type pinned struct {
			tree *Tree
			n    int
		}
		chain := []pinned{{tr.Snapshot(), 0}}
		var items []Item
		next := 1 + rng.Intn(7)
		for tall := 0; tall < 50; { // 50 more inserts at height 3
			it := pointItem(int64(len(items)), rng.Float64(), rng.Float64())
			items = append(items, it)
			tr.Insert(it.ID, it.Rect)
			if height(tr) >= 3 {
				tall++
			}
			if next--; next == 0 {
				chain = append(chain, pinned{tr.Snapshot(), len(items)})
				next = 1 + rng.Intn(7)
			}
		}
		for _, p := range chain {
			name := fmt.Sprintf("fan-out %d, snapshot at %d of %d items", fanout, p.n, len(items))
			checkAgainstBruteForce(t, name, p.tree, items[:p.n], rng)
		}
		checkAgainstBruteForce(t, fmt.Sprintf("fan-out %d, live tree", fanout), tr, items, rng)
	}
}

// TestSnapshotReadersDuringInserts hands a snapshot per insert to readers
// that search it while the writer goes on inserting into the tree it shares
// nodes with. Run under -race: a write to a shared node is a report.
func TestSnapshotReadersDuringInserts(t *testing.T) {
	const (
		inserts = 2000
		readers = 4
	)
	type epoch struct {
		tree *Tree
		n    int
	}
	// Unbuffered: the writer runs one insert ahead of the slowest reader.
	epochs := make(chan epoch)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for e := range epochs {
				if err := e.tree.Validate(true); err != nil {
					t.Errorf("snapshot at %d items: %v", e.n, err)
				}
				all := e.tree.Search(geom.NewRect(-1, -1, 2, 2), func(int64, geom.Rect) bool { return true })
				if all.Results != e.n || e.tree.Len() != e.n {
					t.Errorf("snapshot at %d items holds %d (Len %d)", e.n, all.Results, e.tree.Len())
				}
				cx, cy := rng.Float64(), rng.Float64()
				e.tree.Search(geom.NewRect(cx, cy, cx+0.3, cy+0.3), func(id int64, _ geom.Rect) bool {
					if id >= int64(e.n) {
						t.Errorf("snapshot at %d items returned id %d", e.n, id)
					}
					return true
				})
				if nn, _, ok := e.tree.NearestNeighbor(geom.Pt(cx, cy)); !ok || nn.ID >= int64(e.n) {
					t.Errorf("snapshot at %d items: NearestNeighbor = %v (ok=%v)", e.n, nn, ok)
				}
			}
		}(int64(r))
	}
	rng := rand.New(rand.NewSource(22))
	tr := New(8)
	for i := 0; i < inserts; i++ {
		x, y := rng.Float64(), rng.Float64()
		tr.Insert(int64(i), geom.NewRect(x, y, x, y))
		epochs <- epoch{tr.Snapshot(), i + 1}
	}
	close(epochs)
	wg.Wait()
}

// grownTree returns a fan-out-16 tree of n random points built by Insert,
// as the dynamic engine builds its own. A size is built once per process —
// under the race detector 50k inserts take seconds, and -count repeats the
// pins below — and handed out as a Snapshot, the caller's to insert into.
func grownTree(n int) *Tree {
	tr := grownTrees[n]
	if tr == nil {
		rng := rand.New(rand.NewSource(int64(n)))
		tr = New(16)
		for _, it := range randomPointItems(rng, n) {
			tr.Insert(it.ID, it.Rect)
		}
		grownTrees[n] = tr
	}
	return tr.Snapshot()
}

var grownTrees = map[int]*Tree{}

var snapshotSink *Tree

// TestTreeSnapshotAllocs pins Snapshot at O(1): the one Tree header,
// however many items the tree holds.
func TestTreeSnapshotAllocs(t *testing.T) {
	for _, n := range []int{1000, 50000} {
		tr := grownTree(n)
		if allocs := testing.AllocsPerRun(100, func() { snapshotSink = tr.Snapshot() }); allocs > 1 {
			t.Errorf("Snapshot of %d items: %.1f allocations, want <= 1", n, allocs)
		}
	}
}

// TestInsertAfterSnapshotAllocs pins what a Snapshot costs the next Insert:
// copies of the nodes on one root-to-leaf path — a node and its two slices
// each — and so a function of the height, not of the item count. The lowest
// of 20 epochs is the one whose insert split nothing.
func TestInsertAfterSnapshotAllocs(t *testing.T) {
	var lowest, heights []int
	for _, n := range []int{5000, 50000} {
		tr := grownTree(n)
		rng := rand.New(rand.NewSource(23))
		epoch := func() {
			snapshotSink = tr.Snapshot()
			x, y := rng.Float64(), rng.Float64()
			tr.Insert(int64(tr.Len()), geom.NewRect(x, y, x, y))
		}
		low := math.Inf(1)
		for i := 0; i < 20; i++ {
			low = math.Min(low, testing.AllocsPerRun(1, epoch))
		}
		h := height(tr)
		t.Logf("%d items, height %d: %.0f allocations per Snapshot + Insert", n, h, low)
		if low > float64(3*(h+1)) {
			t.Errorf("%d items: Snapshot + Insert allocates %.0f times, want <= 3 x (height %d + 1)", n, low, h)
		}
		lowest, heights = append(lowest, int(low)), append(heights, h)
	}
	if more, levels := lowest[1]-lowest[0], heights[1]-heights[0]; more > 3*levels {
		t.Errorf("ten times the items cost %d more allocations over %d more levels, want <= 3 per level", more, levels)
	}
}

// TestNodeFitsThe80ByteSizeClass pins the node layout: a generation and three
// slice headers. One more word — the leaf flag the node used to carry beside
// its children — rounds every node up to the allocator's 96-byte class.
func TestNodeFitsThe80ByteSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 80 {
		t.Fatalf("node is %d bytes, want 80", got)
	}
}
