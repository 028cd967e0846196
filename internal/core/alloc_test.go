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

// cellTestSweep runs the strict rule's cell test (testCell) on region
// against every site of data, as the BFS does on one neighbour: the cell is
// clipped from the site's ring into the scratch's reused buffers, then
// tested exactly. It returns the allocations per sweep and the hits.
func cellTestSweep(data *MemoryData, region Region) (allocs float64, hits int) {
	q := voronoiQuery{region: region, strict: true, pts: data.pts, nbrOff: data.nbrOff, nbrs: data.nbrs, clip: data.clip}
	s := new(queryScratch)
	var stats Stats
	allocs = testing.AllocsPerRun(20, func() {
		for i := range data.pts {
			if q.testCell(s, int32(i), data.pts[i], &stats) {
				hits++
			}
		}
	})
	return allocs, hits
}

// TestStrictIntersectionStepAllocsZero pins the strict rule's cell test —
// clip the cell on demand, then the exact region-vs-ring test — at zero
// allocations per visited cell once the scratch's two buffers have grown,
// on a polygon's predicates.
func TestStrictIntersectionStepAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := workload.UniformPoints(rng, 5000, unitBounds())
	data, err := NewMemoryData(pts, unitBounds())
	if err != nil {
		t.Fatal(err)
	}
	area := workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.05}, unitBounds())
	allocs, hits := cellTestSweep(data, PolygonRegion(area))
	if allocs != 0 {
		t.Fatalf("strict intersection step allocates %.1f times per sweep, want 0", allocs)
	}
	if hits == 0 {
		t.Fatal("intersection step never fired; test exercises nothing")
	}
}

// TestCustomRegionStrictStepAllocsZero pins one strict step of a custom
// region — a disk behind a type with only Region's four methods, which the
// strict rule expands by cell tests — at zero allocations too.
func TestCustomRegionStrictStepAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	pts := workload.UniformPoints(rng, 3000, unitBounds())
	data, err := NewMemoryData(pts, unitBounds())
	if err != nil {
		t.Fatal(err)
	}
	allocs, hits := cellTestSweep(data, customRegion{CircleRegion(geom.Circle{Center: geom.Pt(0.5, 0.5), R: 0.1})})
	if allocs != 0 {
		t.Fatalf("custom region's strict step allocates %.1f times per sweep, want 0", allocs)
	}
	if hits == 0 {
		t.Fatal("intersection step never fired; test exercises nothing")
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
				run() // warm the scratch pool
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

// TestDynamicArenaMatchesCell verifies the cells a dynamic snapshot clips
// on demand — from its own adjacency, as the strict rule does — against
// the reference cells of the same sites, fence included, which scanCell
// finds with no triangulation: by area, cell for cell, and together they
// tile the clip rectangle.
func TestDynamicArenaMatchesCell(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	d := NewDynamicEngine(unitBounds())
	for i := 0; i < 500; i++ {
		if _, _, err := d.Insert(geom.Pt(rng.Float64(), rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	data := d.Snapshot().data
	u := unitBounds()
	clip := u.Expand(u.Width() + u.Height() + 1)
	if data.clip != clip {
		t.Fatalf("snapshot clips its cells to %v, want %v", data.clip, clip)
	}
	total := 0.0
	for id := range data.pts {
		cell, _ := voronoi.CellFromNeighbors(nil, nil, data.pts[id], data.nbrs[data.nbrOff[id]:data.nbrOff[id+1]], data.pts, data.clip)
		got, want := geom.Ring(cell).Area(), scanCell(data.pts, id, clip).Area()
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("id %d: clipped cell area %v, reference cell area %v", id, got, want)
		}
		total += got
	}
	if math.Abs(total-clip.Area()) > 1e-9*clip.Area() {
		t.Fatalf("the cells cover %.15g of the clip's %.15g", total, clip.Area())
	}
}
