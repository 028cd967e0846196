// Package core implements the paper's contribution: the Voronoi-diagram
// based area query (Algorithm 1) and the traditional filter-and-refine
// baseline it is evaluated against, over one R-tree index and one record
// layer.
//
// An area query returns every stored point inside a query polygon. The
// traditional method window-queries the index with the polygon's MBR and
// refines each candidate with a point-in-polygon test. The Voronoi method
// seeds from the nearest neighbor of a point inside the polygon and expands
// across the Delaunay/Voronoi adjacency, so its candidate set is the result
// set plus a thin shell along the polygon boundary.
//
// Both methods run against the same index and the same record store, and
// produce identical result sets wherever the Voronoi expansion is complete
// (see Method); Stats captures the work each performed so the paper's
// comparisons (candidates, redundant validations, time, IO) can be
// reproduced.
//
// There is one index and one query path. RTreeIndex — the R-tree the paper
// gives both methods, STR bulk-loaded over an engine's points (a static
// layer's or a dynamic epoch's) on its first traditional query — answers
// the traditional method's window. The Voronoi method does not ask
// it for its seed: lines 3–4 of Algorithm 1, NN(P, a position in A), are a
// greedy walk on the Delaunay graph the method holds anyway (seedWalk),
// started at the site a coarse grid in the data layer names for that
// position, so a Voronoi query touches no index node at all. There is one
// record layer, MemoryData: the sites' positions, their ring chunks and
// the walk's hint, all resident, and optionally a paged store the
// candidates' records are fetched from (NewStoreData). A static engine, a
// store-backed one and every epoch a dynamic engine publishes hold one, so
// every flavor above this package (static, store, sharded, snapshot, remote
// backend) reaches the same loops: voronoiBFS, seeded by that walk, slicing
// positions and rings in place, with the strict rule's cell test on a custom
// region clipping each cell it tests from its ring; and, for the strict rule
// on a polygon, the boundary walk and flood of shell.go. No layer keeps a
// clipped cell. Their one branch on the layer is whether a record load is a
// page fetch, and it is written once: every loop loads a candidate's record
// through queryScratch.load. A traced query's time is split once too, in
// Engine.eachRegion, from the seed and pool-read time the scratch accrued.
package core

import (
	"errors"
	"fmt"
	"sync"
)

// Errors returned by the engine.
var (
	ErrNoData = errors.New("core: dataset is empty")
	// ErrOutsideUniverse is returned when a point inserted into a dynamic
	// engine — or, from the public Querier body, a query region's MBR — falls
	// outside the declared universe: a caller error, matchable by errors.Is.
	ErrOutsideUniverse = errors.New("core: outside the declared universe")
)

// Method selects an area-query algorithm.
type Method int

// The available area-query algorithms.
const (
	// Traditional is the classic filter-and-refine method: MBR window query
	// on the index, then point-in-polygon refinement of every candidate.
	Traditional Method = iota
	// VoronoiBFS is the paper's Algorithm 1 with the published expansion
	// rule (segment p–pn intersects the area).
	VoronoiBFS
	// VoronoiBFSStrict is Algorithm 1 made complete at any density. On a
	// polygon, plain or prepared, it walks the boundary through the
	// Delaunay triangles, places the ends of every edge the boundary meets
	// by the side of it they lie on, validates only those it cannot place,
	// and floods the interior untested (shell.go). On a circle it is the
	// published rule, exact on a convex region (see eachVoronoi). On a
	// custom region it expands by the conservative rule (Voronoi cell of pn
	// intersects the area), complete for a connected area inside the
	// rectangle the cells are clipped to.
	VoronoiBFSStrict
	// BruteForce scans every record; the oracle baseline.
	BruteForce
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Traditional:
		return "traditional"
	case VoronoiBFS:
		return "voronoi"
	case VoronoiBFSStrict:
		return "voronoi-strict"
	case BruteForce:
		return "brute-force"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Stats reports the work a single area query performed. Field semantics
// follow the paper's evaluation: a "candidate" is a point whose containment
// in the query area was validated against its loaded record, and a
// validation is redundant when the point turns out to lie outside.
type Stats struct {
	ResultSize int
	// Candidates is the number of containment validations performed. The
	// strict rule on a polygon validates only the sites of the edges its
	// boundary meets that their sides of it cannot place, and emits the
	// rest of its results untested, so there it can be below ResultSize.
	Candidates int
	// RedundantValidations counts the validations that found the point
	// outside the area: Candidates - ResultSize wherever every result is
	// validated (all but the strict rule on a polygon; see Candidates).
	RedundantValidations int
	// SegmentTests counts segment-vs-area tests: the published rule, and the
	// strict variant on a circle.
	SegmentTests int
	// CellTests counts cell-vs-area tests: the strict variant on custom
	// regions only (on a polygon it walks the boundary instead, and on a
	// circle it counts SegmentTests).
	CellTests int
	// IndexNodesVisited counts index nodes touched by the window query of
	// Traditional. It is 0 for the Voronoi methods, whose seed is a walk on
	// the Delaunay graph from the data layer's hint and touches no index
	// node.
	IndexNodesVisited int
	// RecordsLoaded counts candidate record loads: page fetches when the
	// data layer has a store, reads of the resident position otherwise.
	RecordsLoaded int
}

// Engine answers area queries over one dataset. After construction it holds
// only immutable references to the index and data (its index is packed once,
// on first use, under a sync.Once: LazyRTreeIndex); all per-query mutable
// state lives in pooled queryScratch values, so QueryRegionSpec and
// EachRegion are safe for concurrent use from multiple goroutines (the index
// and the data layer's resident part are lock-free reads; a store serializes
// buffer-pool mutations behind its lock shards).
type Engine struct {
	idx  *RTreeIndex
	data *MemoryData

	// scratch pools per-query state (*queryScratch); see scratch.go. It is
	// the engine's own, except that every epoch of a DynamicEngine borrows
	// its writer's, so a scratch outlives the epoch that warmed it.
	scratch *sync.Pool
}

// NewEngine returns an engine over the given index and data.
func NewEngine(idx *RTreeIndex, data *MemoryData) *Engine {
	return newEngine(idx, data, newScratchPool())
}

// newEngine is NewEngine over a scratch pool the caller supplies.
func newEngine(idx *RTreeIndex, data *MemoryData, scratch *sync.Pool) *Engine {
	return &Engine{idx: idx, data: data, scratch: scratch}
}

// Data returns the engine's data layer.
func (e *Engine) Data() *MemoryData { return e.data }

// IndexPacked reports whether the engine's R-tree has been packed, which its
// first Traditional query does (LazyRTreeIndex). It reads without
// synchronization: call it only while no query can be packing the tree.
func (e *Engine) IndexPacked() bool { return e.idx.tree != nil }

// Add accumulates other's counters into s. It is the merge operation batch
// executors use to fold per-query or per-worker statistics into an
// aggregate.
func (s *Stats) Add(other Stats) {
	s.ResultSize += other.ResultSize
	s.Candidates += other.Candidates
	s.RedundantValidations += other.RedundantValidations
	s.SegmentTests += other.SegmentTests
	s.CellTests += other.CellTests
	s.IndexNodesVisited += other.IndexNodesVisited
	s.RecordsLoaded += other.RecordsLoaded
}
