package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/voronoi"
	"repro/internal/workload"
)

// cellTestSweep runs the strict rule's cell test (testCell) on region
// against every site of data, as the BFS does on one neighbour: the cell is
// clipped from the site's ring into the scratch's reused buffers, then
// tested exactly. It returns the allocations per sweep and the hits.
func cellTestSweep(data *MemoryData, region Region) (allocs float64, hits int) {
	q := voronoiQuery{region: region, strict: true, pts: data.pts, rings: data.rings, clip: data.clip}
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
// layers' ring chunks in place.
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
// on that snapshot: the fixed handful of snapshot headers, chunk table and
// the unbuilt R-tree index, one array per ring chunk the publish rebuilt,
// and nothing for the query, whose scratch comes warm from the pool every
// epoch shares. The chunks are counted off the table (those the previous
// epoch's does not hold; TestPublishAllocs pins their bytes), and what is
// left is a count, not a size: it must not grow with the sites. The lowest
// of 20 epochs is one whose insert grew no array.
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
		rebuilt := 0
		epoch := func() {
			prev := d.Snapshot().data.rings
			if _, _, err := d.Insert(geom.Pt(rng.Float64(), rng.Float64())); err != nil {
				t.Fatal(err)
			}
			snap := d.Snapshot()
			_, st, err := snap.Engine().QueryRegionSpec(ctx, region, QuerySpec{Method: VoronoiBFS, Dest: dest})
			if err != nil || st.ResultSize == 0 {
				t.Fatalf("%d sites: %d results, err %v", d.Len(), st.ResultSize, err)
			}
			rebuilt = 0
			for k, b := range snap.data.rings {
				if k >= len(prev) || &b[0] != &prev[k][0] {
					rebuilt++
				}
			}
		}
		for d.Len() < n {
			if _, _, err := d.Insert(geom.Pt(rng.Float64(), rng.Float64())); err != nil {
				t.Fatal(err)
			}
		}
		low, lowAll := math.Inf(1), math.Inf(1)
		for i := 0; i < 20; i++ {
			allocs := testing.AllocsPerRun(1, epoch)
			if rebuilt == 0 {
				t.Fatalf("%d sites: a publish rebuilt no ring chunk", n)
			}
			low, lowAll = math.Min(low, allocs-float64(rebuilt)), math.Min(lowAll, allocs)
		}
		t.Logf("%d sites: %.0f allocations per Insert + Snapshot + query, %.0f besides the ring chunks rebuilt", n, lowAll, low)
		if lowAll > 16 {
			t.Errorf("%d sites: Insert + Snapshot + query allocates %.0f times, want <= 16", n, lowAll)
		}
		lowest = append(lowest, low)
	}
	if more := lowest[1] - lowest[0]; more > 0 {
		t.Errorf("ten times the sites cost %.0f more allocations per epoch, want none", more)
	}
}

// TestPublishAllocsFollowTheChange pins the bytes a one-insert publish
// allocates — the chunk table, the ring chunks it rebuilt and the
// snapshot's fixed headers — at about 10k and at about 80k preloaded sites:
// the mean over 256 publishes may grow by the table's n/ChunkSites headers
// and by one chunk, no more. A chunk holds ≈ 7 KB of a uniform
// triangulation's rings, and the one chunk of slack is what fewer chunks to
// fall in saves the smaller engine: at 10k the new site's ≈ 6 neighbors
// share a chunk more often. Both preloads end at a chunk boundary, so the
// last chunk, which every publish rebuilds, fills the same way at both
// sizes. Copying every ring, as one flat array per epoch did, would add
// ≈ 1.9 MB.
func TestPublishAllocsFollowTheChange(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins run on an uninstrumented build")
	}
	const publishes = 256
	sizes := []int{40*delaunay.ChunkSites - delaunay.FirstSiteID, 312*delaunay.ChunkSites - delaunay.FirstSiteID}
	var mean []float64
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(71))
		d := NewDynamicEngine(unitBounds())
		for d.Len() < n {
			if _, _, err := d.Insert(geom.Pt(rng.Float64(), rng.Float64())); err != nil {
				t.Fatal(err)
			}
		}
		d.Snapshot()
		var before, after runtime.MemStats
		total := uint64(0)
		for range publishes {
			if _, _, err := d.Insert(geom.Pt(rng.Float64(), rng.Float64())); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			d.Snapshot()
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
		}
		mean = append(mean, float64(total)/publishes)
		t.Logf("%d sites: %.0f B per one-insert publish", n, mean[len(mean)-1])
	}
	chunk := float64(4 * (delaunay.ChunkSites + 1 + 6*delaunay.ChunkSites))
	table := float64(unsafe.Sizeof([]int32(nil))) * float64(sizes[1]-sizes[0]) / delaunay.ChunkSites
	if grew := mean[1] - mean[0]; grew > table+chunk {
		t.Errorf("a one-insert publish allocates %.0f B more at %d sites than at %d, want <= %.0f (the table's growth and one chunk)", grew, sizes[1], sizes[0], table+chunk)
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
		cell, _ := voronoi.CellFromNeighbors(nil, nil, data.pts[id], ring(data, id), data.pts, data.clip)
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
