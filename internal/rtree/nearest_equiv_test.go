package rtree

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// refEntry and refHeap are the reference best-first search's frontier: the
// textbook formulation on container/heap that pushes every child and every
// leaf item and prunes nothing. With legacy set it orders by distance alone,
// as the search did before the typed heap (ties then fall to the heap's
// mechanics); otherwise it applies the documented total order (distance,
// item before node, push order).
type refEntry struct {
	dist2 float64
	node  *node // nil for an item
	item  Item
	seq   int
}

type refHeap struct {
	e      []refEntry
	legacy bool
}

func (h *refHeap) Len() int      { return len(h.e) }
func (h *refHeap) Swap(i, j int) { h.e[i], h.e[j] = h.e[j], h.e[i] }
func (h *refHeap) Less(i, j int) bool {
	a, b := h.e[i], h.e[j]
	if a.dist2 != b.dist2 || h.legacy {
		return a.dist2 < b.dist2
	}
	if (a.node == nil) != (b.node == nil) {
		return a.node == nil
	}
	return a.seq < b.seq
}
func (h *refHeap) Push(x interface{}) { h.e = append(h.e, x.(refEntry)) }
func (h *refHeap) Pop() interface{} {
	x := h.e[len(h.e)-1]
	h.e = h.e[:len(h.e)-1]
	return x
}

func refNearest(t *Tree, q geom.Point, legacy bool) ([]Item, QueryStats) {
	var st QueryStats
	if t.size == 0 {
		return nil, st
	}
	h := &refHeap{legacy: legacy}
	seq := 0
	push := func(e refEntry) {
		e.seq = seq
		seq++
		heap.Push(h, e)
	}
	push(refEntry{dist2: t.root.bounds().Dist2Point(q), node: t.root})
	var out []Item
	for h.Len() > 0 {
		e := heap.Pop(h).(refEntry)
		if e.node == nil {
			out = append(out, e.item)
			st.Results++
			break
		}
		st.NodesVisited++
		for i, r := range e.node.rects {
			if e.node.leaf() {
				st.EntriesScanned++
				push(refEntry{dist2: r.Dist2Point(q), item: Item{ID: e.node.ids[i], Rect: r}})
			} else {
				push(refEntry{dist2: r.Dist2Point(q), node: e.node.children[i]})
			}
		}
	}
	return out, st
}

// nnDataset is one point set of the equivalence suite. tieFree marks sets
// whose item distances from the suite's queries are distinct, where the
// legacy distance-only order decides everything too.
type nnDataset struct {
	name    string
	items   []Item
	queries []geom.Point
	tieFree bool
}

func nnDatasets(rng *rand.Rand) []nnDataset {
	randomQueries := func(n int) []geom.Point {
		qs := make([]geom.Point, n)
		for i := range qs {
			qs[i] = geom.Pt(rng.Float64()*1.2-0.1, rng.Float64()*1.2-0.1)
		}
		return qs
	}
	clustered := make([]Item, 1000)
	for i := range clustered {
		cx, cy := float64(i%5)*0.2+0.1, float64(i%3)*0.3+0.2
		clustered[i] = pointItem(int64(i), cx+rng.NormFloat64()*0.01, cy+rng.NormFloat64()*0.01)
	}
	// An integer lattice queried at lattice points and cell centres: four or
	// eight items tie at every rank, and node MINDISTs tie with item
	// distances.
	var lattice []Item
	for x := 0; x < 24; x++ {
		for y := 0; y < 24; y++ {
			lattice = append(lattice, pointItem(int64(len(lattice)), float64(x), float64(y)))
		}
	}
	var latticeQueries []geom.Point
	for i := 0; i < 15; i++ {
		x, y := float64(rng.Intn(24)), float64(rng.Intn(24))
		latticeQueries = append(latticeQueries, geom.Pt(x, y), geom.Pt(x+0.5, y+0.5), geom.Pt(x+0.5, y))
	}
	return []nnDataset{
		{"random", randomPointItems(rng, 1200), randomQueries(30), true},
		{"clustered", clustered, randomQueries(30), true},
		{"duplicate-distance", lattice, latticeQueries, false},
		{"single-leaf", randomPointItems(rng, 7), randomQueries(30), true},
	}
}

// nnTrees packs items at a narrow and at the default fan-out: more levels
// and ties between node MINDISTs at one, the engines' shape at the other.
func nnTrees(items []Item) map[string]*Tree {
	return map[string]*Tree{"fan-out 4": BulkLoad(items, 4), "fan-out 16": BulkLoad(items, DefaultMaxEntries)}
}

// TestBestFirstMatchesReference pins the pruned traversal to the reference
// run for one neighbor: NearestNeighbor returns the item the reference
// reports first, having visited the same number of nodes and scanned the
// same entries, and no stored item is nearer. On tie-free sets the same
// holds against the legacy distance-only order, so seeds and NodesVisited
// are what they were before the typed heap.
func TestBestFirstMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, ds := range nnDatasets(rng) {
		for treeName, tr := range nnTrees(ds.items) {
			for _, q := range ds.queries {
				nn, nnSt, ok := tr.NearestNeighbor(q)
				want, wantSt := refNearest(tr, q, false)
				if !ok || nn != want[0] || nnSt != wantSt {
					t.Fatalf("%s/%s q=%v: NearestNeighbor %v %+v ok=%v, reference %v %+v",
						ds.name, treeName, q, nn, nnSt, ok, want, wantSt)
				}
				if ds.tieFree {
					legacy, legacySt := refNearest(tr, q, true)
					if nn != legacy[0] || nnSt.NodesVisited != legacySt.NodesVisited {
						t.Fatalf("%s/%s q=%v: NearestNeighbor %v (%d nodes), legacy order %v (%d nodes)",
							ds.name, treeName, q, nn, nnSt.NodesVisited, legacy, legacySt.NodesVisited)
					}
				}
				bruteD2 := math.Inf(1)
				for _, it := range ds.items {
					bruteD2 = math.Min(bruteD2, it.Rect.Dist2Point(q))
				}
				if d2 := nn.Rect.Dist2Point(q); d2 != bruteD2 {
					t.Fatalf("%s/%s q=%v: NearestNeighbor at %g, brute force %g", ds.name, treeName, q, d2, bruteD2)
				}
			}
		}
	}
}

// TestNearestNeighborAllocs pins the seed lookup at zero allocations: the
// frontier lives in a stack buffer and nothing is boxed.
func TestNearestNeighborAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := BulkLoad(randomPointItems(rng, 50000), DefaultMaxEntries)
	qs := make([]geom.Point, 64)
	for i := range qs {
		qs[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, q := range qs {
			if _, _, ok := tr.NearestNeighbor(q); !ok {
				t.Fatal("NearestNeighbor found nothing")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("NearestNeighbor allocates %.1f times per %d lookups, want 0", allocs, len(qs))
	}
}
