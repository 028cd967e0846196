package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/voronoi"
	"repro/internal/workload"
)

// TestStrictIntersectionStepAllocsZero pins the BFS cell-intersection step
// — bounding-box reject, packed ring view, exact region-vs-ring test — at
// zero allocations per visited cell. This is the tentpole guarantee of the
// flat arena layout: the strict expansion never materializes a cell.
func TestStrictIntersectionStepAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := workload.UniformPoints(rng, 5000, unitBounds())
	data, err := NewMemoryData(pts, unitBounds())
	if err != nil {
		t.Fatal(err)
	}
	area := workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.05}, unitBounds())
	region := PolygonRegion(area)
	q := voronoiQuery{region: region, strict: true, regionMBR: region.Bounds()}
	q.arena = data.CellArena()
	q.rectRegion, _ = region.(RectIntersecter)
	q.ringRegion, _ = region.(RingViewIntersecter)

	var stats Stats
	hits := 0
	allocs := testing.AllocsPerRun(20, func() {
		for i := range pts {
			if q.testCell(int32(i), data.pts[i], &stats) {
				hits++
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("strict intersection step allocates %.1f times per sweep, want 0", allocs)
	}
	if hits == 0 {
		t.Fatal("intersection step never fired; test exercises nothing")
	}
}

// TestCircleIntersectionStepAllocsZero pins the generic (non-prepared)
// region fallback: circles take regionIntersectsRingView over the packed
// coordinates and must not allocate either.
func TestCircleIntersectionStepAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	pts := workload.UniformPoints(rng, 3000, unitBounds())
	data, err := NewMemoryData(pts, unitBounds())
	if err != nil {
		t.Fatal(err)
	}
	region := CircleRegion(geom.Circle{Center: geom.Pt(0.5, 0.5), R: 0.1})
	q := voronoiQuery{region: region, strict: true, regionMBR: region.Bounds()}
	q.arena = data.CellArena()
	q.rectRegion, _ = region.(RectIntersecter)
	q.ringRegion, _ = region.(RingViewIntersecter)

	var stats Stats
	allocs := testing.AllocsPerRun(20, func() {
		for i := range pts {
			q.testCell(int32(i), data.pts[i], &stats)
		}
	})
	if allocs != 0 {
		t.Fatalf("circle intersection step allocates %.1f times per sweep, want 0", allocs)
	}
}

// TestQueryRegionSpecAllocsZero pins the whole local query path — seed
// lookup, BFS, expansion tests, result collection through the scratch-owned
// collector — at zero allocations per query for both Voronoi rules, on
// polygons and circles, given a pre-sized Dest and a warm scratch pool; and
// likewise with CountOnly. It holds on the static engine and on a dynamic
// snapshot alike: the one BFS loop builds no closures and slices both
// layers' CSR adjacency in place.
func TestQueryRegionSpecAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates inside sync.Pool")
	}
	rng := rand.New(rand.NewSource(53))
	pts := workload.UniformPoints(rng, 5000, unitBounds())
	ctx := context.Background()
	regions := []Region{
		PolygonRegion(workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.02}, unitBounds())),
		CircleRegion(geom.Circle{Center: geom.Pt(0.5, 0.5), R: 0.08}),
	}
	dest := make([]int64, 0, len(pts))
	for _, se := range shippedEngines(t, pts) {
		for _, spec := range []QuerySpec{
			{Method: VoronoiBFS, Dest: dest},
			{Method: VoronoiBFSStrict, Dest: dest},
			{Method: VoronoiBFS, CountOnly: true},
		} {
			for ri, region := range regions {
				run := func() {
					_, st, err := se.eng.QueryRegionSpec(ctx, region, spec)
					if err != nil || st.ResultSize == 0 {
						t.Fatalf("%s, region %d, %+v: %d results, err %v", se.name, ri, spec.Method, st.ResultSize, err)
					}
				}
				run() // warm the scratch pool (and a snapshot's lazily built arena)
				if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
					t.Errorf("%s, region %d, %v (count only: %v): %.1f allocs per query, want 0",
						se.name, ri, spec.Method, spec.CountOnly, allocs)
				}
			}
		}
	}
}

// TestDynamicPublishAllocs pins what one epoch of a dynamic engine
// allocates — an Insert, the Snapshot that publishes it and the first query
// on that snapshot: the fixed handful of snapshot headers, topology arrays
// and the unbuilt R-tree index, and nothing for the query, whose scratch
// comes warm from the pool every epoch shares. A count, not a size: it must
// not grow with the sites. The lowest of 20 epochs is one whose insert grew
// no array.
func TestDynamicPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates inside sync.Pool")
	}
	ctx := context.Background()
	region := CircleRegion(geom.Circle{Center: geom.Pt(0.5, 0.5), R: 0.03})
	var lowest []float64
	for _, n := range []int{5000, 50000} {
		rng := rand.New(rand.NewSource(59))
		d := NewDynamicEngine(unitBounds())
		dest := make([]int64, 0, n)
		epoch := func() {
			if _, _, err := d.Insert(geom.Pt(rng.Float64(), rng.Float64())); err != nil {
				t.Fatal(err)
			}
			_, st, err := d.Snapshot().Engine().QueryRegionSpec(ctx, region, QuerySpec{Method: VoronoiBFS, Dest: dest})
			if err != nil || st.ResultSize == 0 {
				t.Fatalf("%d sites: %d results, err %v", d.Len(), st.ResultSize, err)
			}
		}
		for d.Len() < n {
			if _, _, err := d.Insert(geom.Pt(rng.Float64(), rng.Float64())); err != nil {
				t.Fatal(err)
			}
		}
		low := math.Inf(1)
		for i := 0; i < 20; i++ {
			low = math.Min(low, testing.AllocsPerRun(1, epoch))
		}
		t.Logf("%d sites: %.0f allocations per Insert + Snapshot + query", n, low)
		if low > 16 {
			t.Errorf("%d sites: Insert + Snapshot + query allocates %.0f times, want <= 16", n, low)
		}
		lowest = append(lowest, low)
	}
	if more := lowest[1] - lowest[0]; more > 0 {
		t.Errorf("ten times the sites cost %.0f more allocations per epoch, want none", more)
	}
}

// TestDynamicInsertAllocs pins a warm Insert — no array grown — at zero
// allocations: the hint lookup keeps its frontier on the stack, and the
// triangulation's pools are already big enough. The lowest of 20 inserts is
// a warm one.
func TestDynamicInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins run on an uninstrumented build")
	}
	rng := rand.New(rand.NewSource(61))
	d := NewDynamicEngine(unitBounds())
	insert := func() {
		if _, _, err := d.Insert(geom.Pt(rng.Float64(), rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	for d.Len() < 5000 {
		insert()
	}
	low := math.Inf(1)
	for i := 0; i < 20; i++ {
		low = math.Min(low, testing.AllocsPerRun(1, insert))
	}
	if low > 0 {
		t.Errorf("a warm Insert allocates %.0f times, want 0", low)
	}
}

// TestDynamicArenaMatchesCell verifies the dynamic engine's lazily built
// snapshot arena against cells constructed in the test: ring for ring,
// exactly, against voronoi.CellFromNeighbors over the snapshot's own
// adjacency (the parity the strict rule relies on), and by area against
// voronoi.Diagram.Cell of a static diagram built from scratch over the same
// sites — an independent triangulation of the same point set.
func TestDynamicArenaMatchesCell(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	d := NewDynamicEngine(unitBounds())
	for i := 0; i < 500; i++ {
		if _, _, err := d.Insert(geom.Pt(rng.Float64(), rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	snap := d.Snapshot()
	data := snap.data
	arena := data.CellArena()
	if arena.NumCells() != len(data.pts) {
		t.Fatalf("arena covers %d cells, snapshot has %d ids", arena.NumCells(), len(data.pts))
	}
	if again := data.CellArena(); again != arena {
		t.Fatal("CellArena rebuilt on second call; want cached per snapshot")
	}
	u := unitBounds()
	clip := u.Expand(u.Width() + u.Height() + 1)
	sites := data.pts
	static, err := voronoi.New(sites, clip)
	if err != nil {
		t.Fatal(err)
	}
	for id := range sites {
		var nbPts []geom.Point
		for _, nb := range ring(data, id) {
			nbPts = append(nbPts, sites[nb])
		}
		cell := voronoi.CellFromNeighbors(sites[id], nbPts, clip)
		view := arena.Ring(id)
		if view.Len() != len(cell) {
			t.Fatalf("id %d: arena ring has %d vertices, CellFromNeighbors %d", id, view.Len(), len(cell))
		}
		for j := range cell {
			if view.At(j) != cell[j] {
				t.Fatalf("id %d vertex %d: arena %v != CellFromNeighbors %v", id, j, view.At(j), cell[j])
			}
		}
		if got, want := view.Area(), static.Cell(id).Area(); math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("id %d: arena cell area %v, static diagram cell area %v", id, got, want)
		}
	}
}
