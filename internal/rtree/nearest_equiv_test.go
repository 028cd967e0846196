package rtree

import (
	"container/heap"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// refEntry and refHeap are the reference best-first search's frontier: the
// textbook formulation on container/heap that pushes every child and every
// leaf point and prunes nothing. With legacy set it orders by distance alone,
// as the search did before the typed heap (ties then fall to the heap's
// mechanics); otherwise it applies the documented total order (distance,
// point before node, push order).
type refEntry struct {
	dist2 float64
	node  *node // nil for a point
	id    int64
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

// refNearest returns the reference's first point and the nodes it visited;
// ok is false for an empty tree.
func refNearest(t *Tree, q geom.Point, legacy bool) (id int64, nodes int, ok bool) {
	if t.size == 0 {
		return 0, 0, false
	}
	h := &refHeap{legacy: legacy}
	seq := 0
	push := func(e refEntry) {
		e.seq = seq
		seq++
		heap.Push(h, e)
	}
	push(refEntry{dist2: t.Bounds().Dist2Point(q), node: t.root})
	for h.Len() > 0 {
		e := heap.Pop(h).(refEntry)
		if e.node == nil {
			return e.id, nodes, true
		}
		nodes++
		for _, pid := range e.node.ids {
			push(refEntry{dist2: t.pts[pid].Dist2(q), id: int64(pid)})
		}
		for i, r := range e.node.rects {
			push(refEntry{dist2: r.Dist2Point(q), node: e.node.children[i]})
		}
	}
	return 0, nodes, false
}

// nnDataset is one point set of the equivalence suite. tieFree marks sets
// whose point distances from the suite's queries are distinct, where the
// legacy distance-only order decides everything too.
type nnDataset struct {
	name    string
	pts     []geom.Point
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
	clustered := make([]geom.Point, 1000)
	for i := range clustered {
		cx, cy := float64(i%5)*0.2+0.1, float64(i%3)*0.3+0.2
		clustered[i] = geom.Pt(cx+rng.NormFloat64()*0.01, cy+rng.NormFloat64()*0.01)
	}
	// An integer lattice queried at lattice points and cell centres: four or
	// eight points tie at every rank, and node MINDISTs tie with point
	// distances.
	var lattice []geom.Point
	for x := 0; x < 24; x++ {
		for y := 0; y < 24; y++ {
			lattice = append(lattice, geom.Pt(float64(x), float64(y)))
		}
	}
	var latticeQueries []geom.Point
	for i := 0; i < 15; i++ {
		x, y := float64(rng.Intn(24)), float64(rng.Intn(24))
		latticeQueries = append(latticeQueries, geom.Pt(x, y), geom.Pt(x+0.5, y+0.5), geom.Pt(x+0.5, y))
	}
	return []nnDataset{
		{"random", randomPoints(rng, 1200), randomQueries(30), true},
		{"clustered", clustered, randomQueries(30), true},
		{"duplicate-distance", lattice, latticeQueries, false},
		{"single-leaf", randomPoints(rng, 7), randomQueries(30), true},
	}
}

// nnTrees packs pts at a narrow and at the default fan-out: more levels
// and ties between node MINDISTs at one, the engines' shape at the other.
func nnTrees(pts []geom.Point) map[string]*Tree {
	return map[string]*Tree{"fan-out 4": BulkLoad(pts, 0, 4), "fan-out 16": BulkLoad(pts, 0, DefaultMaxEntries)}
}

// TestBestFirstMatchesReference pins the pruned traversal to the reference
// run for one neighbor: NearestNeighbor returns the point the reference
// reports first, having visited the same number of nodes, and no indexed
// point is nearer. On tie-free sets the same holds against the legacy
// distance-only order, so seeds and node counts are what they were before
// the typed heap.
func TestBestFirstMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, ds := range nnDatasets(rng) {
		for treeName, tr := range nnTrees(ds.pts) {
			for _, q := range ds.queries {
				nn, nodes, ok := tr.NearestNeighbor(q)
				want, wantNodes, _ := refNearest(tr, q, false)
				if !ok || nn != want || nodes != wantNodes {
					t.Fatalf("%s/%s q=%v: NearestNeighbor %d (%d nodes) ok=%v, reference %d (%d nodes)",
						ds.name, treeName, q, nn, nodes, ok, want, wantNodes)
				}
				if ds.tieFree {
					legacy, legacyNodes, _ := refNearest(tr, q, true)
					if nn != legacy || nodes != legacyNodes {
						t.Fatalf("%s/%s q=%v: NearestNeighbor %d (%d nodes), legacy order %d (%d nodes)",
							ds.name, treeName, q, nn, nodes, legacy, legacyNodes)
					}
				}
				if d2, bruteD2 := ds.pts[nn].Dist2(q), bruteNearest(ds.pts, q); d2 != bruteD2 {
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
	tr := BulkLoad(randomPoints(rng, 50000), 0, DefaultMaxEntries)
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
