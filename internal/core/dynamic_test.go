package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/workload"
)

func TestDynamicEngineEmpty(t *testing.T) {
	d := NewDynamicEngine(unitBounds())
	area := geom.MustPolygon([]geom.Point{geom.Pt(0.1, 0.1), geom.Pt(0.5, 0.1), geom.Pt(0.3, 0.5)})
	if _, _, err := query(d.Snapshot(), VoronoiBFS, PolygonRegion(area)); err != ErrNoData {
		t.Errorf("empty dynamic engine: err = %v, want ErrNoData", err)
	}
}

func TestDynamicEngineMatchesOracleWhileGrowing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDynamicEngine(unitBounds())
	for batch := 0; batch < 8; batch++ {
		for i := 0; i < 250; i++ {
			if _, _, err := d.Insert(geom.Pt(rng.Float64(), rng.Float64())); err != nil {
				t.Fatal(err)
			}
		}
		for trial := 0; trial < 5; trial++ {
			area := workload.RandomPolygon(rng, workload.PolygonConfig{
				Vertices:  10,
				QuerySize: 0.05,
			}, unitBounds())
			oracle, _, err := query(d.Snapshot(), BruteForce, PolygonRegion(area))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []Method{Traditional, VoronoiBFS, VoronoiBFSStrict} {
				got, _, err := query(d.Snapshot(), m, PolygonRegion(area))
				if err != nil {
					t.Fatalf("batch %d %v: %v", batch, m, err)
				}
				if !slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(oracle))) {
					t.Fatalf("batch %d (%d pts) %v: %d results, oracle %d",
						batch, d.Len(), m, len(got), len(oracle))
				}
			}
		}
	}
}

func TestDynamicEngineNoFenceLeakage(t *testing.T) {
	// A query covering the whole universe must return every inserted
	// point and no fence sites.
	rng := rand.New(rand.NewSource(2))
	d := NewDynamicEngine(unitBounds())
	const n = 500
	for i := 0; i < n; i++ {
		if _, _, err := d.Insert(geom.Pt(rng.Float64(), rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	area := geom.MustPolygon([]geom.Point{
		geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1),
	})
	snap := d.Snapshot()
	pos := snap.Data().Positions()
	for _, m := range []Method{Traditional, VoronoiBFS, BruteForce} {
		ids, _, err := query(snap, m, PolygonRegion(area))
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != n {
			t.Fatalf("%v: %d results, want %d", m, len(ids), n)
		}
		for _, id := range ids {
			if id < delaunay.FirstSiteID || id >= int64(len(pos)) || !unitBounds().ContainsPoint(pos[id]) {
				t.Fatalf("%v: result %d outside universe (fence leak?)", m, id)
			}
		}
	}
}

func TestDynamicEngineSparse(t *testing.T) {
	// With very few points, the Voronoi BFS may need to route through
	// fence sites; results must still match the oracle.
	rng := rand.New(rand.NewSource(3))
	d := NewDynamicEngine(unitBounds())
	coords := []geom.Point{
		geom.Pt(0.05, 0.05), geom.Pt(0.95, 0.95), geom.Pt(0.1, 0.9),
	}
	for _, p := range coords {
		if _, _, err := d.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 50; trial++ {
		area := workload.RandomPolygon(rng, workload.PolygonConfig{QuerySize: 0.2}, unitBounds())
		oracle, _, err := query(d.Snapshot(), BruteForce, PolygonRegion(area))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := query(d.Snapshot(), VoronoiBFS, PolygonRegion(area))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(oracle))) {
			t.Fatalf("trial %d: sparse dynamic voronoi diverged (%d vs %d)",
				trial, len(got), len(oracle))
		}
	}
}

// TestDynamicEngineDuplicateInsert repeats an inserted coordinate where a
// locate walk could miss it: the walk, started at the hint grid's site, must
// end at the site already there. Each repeat answers the first insert's id,
// not inserted, leaves Len alone, and the next epoch answers the whole
// universe exactly.
func TestDynamicEngineDuplicateInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	uniform := func(n int) []geom.Point { return workload.UniformPoints(rng, n, unitBounds()) }
	// A collinear row, its ends first: (8/16, 1/2) splits the Delaunay edge
	// joining them, and every later site splits an edge of the row.
	row := []geom.Point{geom.Pt(1.0/16, 0.5), geom.Pt(15.0/16, 0.5), geom.Pt(8.0/16, 0.5)}
	for k := 2; k < 15; k++ {
		if k != 8 {
			row = append(row, geom.Pt(float64(k)/16, 0.5))
		}
	}
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name   string
		pts    []geom.Point // inserted in order
		repeat geom.Point   // equal (==) to one of pts
	}{
		{"previous insert", []geom.Point{geom.Pt(0.4, 0.4)}, geom.Pt(0.4, 0.4)},
		{"early site after 10k others", append([]geom.Point{geom.Pt(0.3, 0.7)}, uniform(10000)...), geom.Pt(0.3, 0.7)},
		{"universe corner", append([]geom.Point{geom.Pt(1, 0), geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(0, 1)}, uniform(500)...), geom.Pt(1, 0)},
		{"split a collinear row's edge", row, geom.Pt(0.5, 0.5)},
		{"-0 against +0", append([]geom.Point{geom.Pt(0, 0.25)}, uniform(500)...), geom.Pt(negZero, 0.25)},
	}
	everything := PolygonRegion(geom.MustPolygon([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDynamicEngine(unitBounds())
			first := int64(-1)
			for i, p := range tc.pts {
				id, ins, err := d.Insert(p)
				if err != nil || !ins {
					t.Fatalf("insert %d %v: id=%d ins=%v err=%v", i, p, id, ins, err)
				}
				if p == tc.repeat {
					first = id
				}
			}
			d.Snapshot() // the repeat must find the site in a published triangulation too
			id, ins, err := d.Insert(tc.repeat)
			if err != nil || ins || id != first {
				t.Fatalf("repeat of %v: id=%d ins=%v err=%v, want %d false", tc.repeat, id, ins, err, first)
			}
			if d.Len() != len(tc.pts) {
				t.Fatalf("Len = %d after the repeat, want %d", d.Len(), len(tc.pts))
			}
			s := d.Snapshot()
			want, _, err := query(s, BruteForce, everything)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(tc.pts) {
				t.Fatalf("brute force finds %d sites, want %d", len(want), len(tc.pts))
			}
			slices.Sort(want)
			for _, m := range []Method{VoronoiBFS, VoronoiBFSStrict, Traditional} {
				got, _, err := query(s, m, everything)
				if err != nil {
					t.Fatal(err)
				}
				if slices.Sort(got); !slices.Equal(got, want) {
					t.Fatalf("%v: %d results, brute force %d", m, len(got), len(want))
				}
			}
		})
	}
}

func BenchmarkDynamicEngineInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	d := NewDynamicEngine(unitBounds())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Insert(geom.Pt(rng.Float64(), rng.Float64())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublish times the Snapshot that publishes one Insert, on an
// engine preloaded with 50k uniform sites: the ring chunks the insert
// changed rebuilt, the rest shared. The insert itself is not timed.
func BenchmarkPublish(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	d := NewDynamicEngine(unitBounds())
	for d.Len() < 50_000 {
		if _, _, err := d.Insert(geom.Pt(rng.Float64(), rng.Float64())); err != nil {
			b.Fatal(err)
		}
	}
	d.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, _, err := d.Insert(geom.Pt(rng.Float64(), rng.Float64())); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		d.Snapshot()
	}
}

func BenchmarkDynamicEngineQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	d := NewDynamicEngine(unitBounds())
	for i := 0; i < 50_000; i++ {
		if _, _, err := d.Insert(geom.Pt(rng.Float64(), rng.Float64())); err != nil {
			b.Fatal(err)
		}
	}
	areas := make([]geom.Polygon, 64)
	for i := range areas {
		areas[i] = workload.RandomPolygon(rng, workload.PolygonConfig{QuerySize: 0.01}, unitBounds())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := query(d.Snapshot(), VoronoiBFS, PolygonRegion(areas[i%len(areas)])); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDynamicInsertOutsideUniverseSentinel(t *testing.T) {
	d := NewDynamicEngine(unitBounds())
	if _, _, err := d.Insert(geom.Pt(3, 3)); !errors.Is(err, ErrOutsideUniverse) {
		t.Errorf("insert outside universe: err = %v, want ErrOutsideUniverse", err)
	}
}

func TestDynamicSnapshotPinsEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewDynamicEngine(unitBounds())
	for i := 0; i < 400; i++ {
		if _, _, err := d.Insert(geom.Pt(rng.Float64(), rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	area := workload.RandomPolygon(rng, workload.PolygonConfig{QuerySize: 0.2}, unitBounds())

	snap := d.Snapshot()
	if snap.data.Len() != 400 {
		t.Fatalf("snapshot len = %d, want 400", snap.data.Len())
	}
	if again := d.Snapshot(); again != snap {
		t.Error("repeated Snapshot between writes should return the published view")
	}
	before, _, err := query(snap, VoronoiBFS, PolygonRegion(area))
	if err != nil {
		t.Fatal(err)
	}

	// Insert many more points, several inside the area: the pinned snapshot
	// must keep answering from epoch 400.
	for i := 0; i < 400; i++ {
		if _, _, err := d.Insert(geom.Pt(rng.Float64(), rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	after, _, err := query(snap, VoronoiBFS, PolygonRegion(area))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(slices.Sorted(slices.Values(before)), slices.Sorted(slices.Values(after))) {
		t.Fatalf("pinned snapshot answers changed: %d -> %d results", len(before), len(after))
	}
	oracle, _, err := query(snap, BruteForce, PolygonRegion(area))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(slices.Sorted(slices.Values(after)), slices.Sorted(slices.Values(oracle))) {
		t.Fatalf("snapshot voronoi diverged from its own oracle")
	}

	// The live engine, on the other hand, reflects the new epoch.
	if d.Len() != 800 {
		t.Fatalf("live epoch = %d, want 800", d.Len())
	}
	live, _, err := query(d.Snapshot(), BruteForce, PolygonRegion(area))
	if err != nil {
		t.Fatal(err)
	}
	if len(live) < len(oracle) {
		t.Fatalf("live query sees %d results, pinned %d", len(live), len(oracle))
	}
}

// TestDynamicSnapshotNeighborsStableUnderInserts reads every ring of a
// pinned snapshot, over and over, while another goroutine inserts and
// publishes epoch after epoch, each patched from the one before: the pinned
// rings never change, and the last epoch's equal a walk of every ring. CI
// repeats it under the race detector.
func TestDynamicSnapshotNeighborsStableUnderInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	d := NewDynamicEngine(unitBounds())
	for _, p := range workload.UniformPoints(rng, 2000, unitBounds()) {
		if _, _, err := d.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	pinned := d.Snapshot().data
	want := make([][]int32, len(pinned.pts))
	for id := range want {
		want[id] = slices.Clone(ring(pinned, id))
	}
	more := workload.UniformPoints(rng, 500, unitBounds())
	done := make(chan error, 1)
	go func() {
		for _, p := range more {
			if _, _, err := d.Insert(p); err != nil {
				done <- err
				return
			}
			d.Snapshot()
		}
		done <- nil
	}()
	for writing := true; writing; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			writing = false // one more pass over a finished writer
		default:
		}
		for id, was := range want {
			if got := ring(pinned, id); !slices.Equal(got, was) {
				t.Fatalf("pinned ring of %d changed from %v to %v", id, was, got)
			}
		}
	}
	last := d.Snapshot().data
	d.mu.Lock()
	walked := d.dt.Adjacency(nil, 0)
	d.mu.Unlock()
	if !slices.EqualFunc(last.rings, walked, slices.Equal) {
		t.Fatal("500 patched epochs do not hold the rings a walk of every site gives")
	}
}

// TestSnapshotRingsSurviveInserts pins epochs where ring chunks are shared
// or rebuilt at their edges — at ChunkSites−1, ChunkSites and ChunkSites+1
// sites, fence sites included, and after an insert that rewrites a fence
// site's ring (every fence ring lies in chunk 0) — then inserts two chunks'
// worth more, publishing every epoch, while other goroutines query the
// pinned snapshots and read their rings. Every pinned epoch keeps the rings
// it was published with, equal to the writer's own walk at that time, and
// keeps answering as it did. CI repeats it under the race detector.
func TestSnapshotRingsSurviveInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	d := NewDynamicEngine(unitBounds())
	insert := func(p geom.Point) int64 {
		t.Helper()
		id, ok, err := d.Insert(p)
		if err != nil || !ok {
			t.Fatalf("insert %v: id %d, inserted %v, err %v", p, id, ok, err)
		}
		return id
	}
	type pin struct {
		snap  *Engine
		rings [][]int32 // a copy of every ring, taken when pinned
		ids   []int64   // the answer to area
	}
	area := PolygonRegion(geom.MustPolygon([]geom.Point{geom.Pt(0.02, 0.02), geom.Pt(0.7, 0.1), geom.Pt(0.4, 0.6)}))
	var pins []pin
	take := func() {
		t.Helper()
		snap := d.Snapshot()
		p := pin{snap: snap, rings: make([][]int32, len(snap.data.pts))}
		d.mu.Lock()
		for id := range p.rings {
			p.rings[id] = slices.Clone(ring(snap.data, id))
			if walk := d.dt.AppendNeighbors(id, nil); !slices.Equal(p.rings[id], walk) {
				d.mu.Unlock()
				t.Fatalf("epoch %d: ring of %d published as %v, the writer walks %v", snap.data.Len(), id, p.rings[id], walk)
			}
		}
		d.mu.Unlock()
		ids, _, err := query(snap, VoronoiBFS, area)
		if err != nil {
			t.Fatal(err)
		}
		p.ids = slices.Sorted(slices.Values(ids))
		pins = append(pins, p)
	}
	for _, sites := range []int{delaunay.ChunkSites - 1, delaunay.ChunkSites, delaunay.ChunkSites + 1} {
		for d.Len()+delaunay.FirstSiteID < sites {
			insert(geom.Pt(rng.Float64(), rng.Float64()))
		}
		take()
	}
	// A site close to a universe corner, outside the hull of the others,
	// joins a fence site's ring.
	fenced := false
	for _, p := range []geom.Point{geom.Pt(1e-6, 1e-6), geom.Pt(1-1e-6, 1e-6), geom.Pt(1e-6, 1-1e-6), geom.Pt(1-1e-6, 1-1e-6)} {
		id := insert(p)
		d.mu.Lock()
		for _, nb := range d.dt.AppendNeighbors(int(id), nil) {
			fenced = fenced || nb < delaunay.FirstSiteID
		}
		d.mu.Unlock()
		if fenced {
			break
		}
	}
	if !fenced {
		t.Fatal("no corner insert rewrote a fence site's ring")
	}
	take()

	stop := make(chan struct{})
	errs := make(chan error, len(pins))
	var wg sync.WaitGroup
	for _, p := range pins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				ids, _, err := query(p.snap, VoronoiBFS, area)
				if err == nil && !slices.Equal(slices.Sorted(slices.Values(ids)), p.ids) {
					err = errors.New("a pinned epoch's answer changed")
				}
				for id, was := range p.rings {
					if err == nil && !slices.Equal(ring(p.snap.data, id), was) {
						err = errors.New("a pinned epoch's ring changed")
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for target := d.Len() + 2*delaunay.ChunkSites; d.Len() < target; {
		insert(geom.Pt(rng.Float64(), rng.Float64()))
		d.Snapshot()
	}
	close(stop)
	wg.Wait()
	for range pins {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pins {
		for id, was := range p.rings {
			if got := ring(p.snap.data, id); !slices.Equal(got, was) {
				t.Fatalf("epoch %d: ring of %d changed from %v to %v", p.snap.data.Len(), id, was, got)
			}
		}
	}
}

// TestDynamicSnapshotDoesNotPinWriter checks that a held snapshot — which
// shares R-tree nodes, the point array and the scratch pool with the engine
// that published it — does not reach the engine itself.
func TestDynamicSnapshotDoesNotPinWriter(t *testing.T) {
	collected := make(chan struct{})
	snap := func() *Engine {
		d := NewDynamicEngine(unitBounds())
		runtime.SetFinalizer(d, func(*DynamicEngine) { close(collected) })
		for _, p := range []geom.Point{geom.Pt(0.2, 0.2), geom.Pt(0.8, 0.3), geom.Pt(0.5, 0.9)} {
			if _, _, err := d.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		return d.Snapshot()
	}()
	area := geom.MustPolygon([]geom.Point{geom.Pt(0.1, 0.1), geom.Pt(0.9, 0.1), geom.Pt(0.5, 0.95)})
	if _, _, err := query(snap, VoronoiBFS, PolygonRegion(area)); err != nil {
		t.Fatal(err) // the pool now holds a scratch this snapshot warmed
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(snap)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the engine is still reachable while only its snapshot is held")
}

// TestDynamicConformanceAcrossMethods is the dynamic conformance suite:
// after every batch of inserts, all four methods must agree on the same
// snapshot, on uniform and clustered workloads.
func TestDynamicConformanceAcrossMethods(t *testing.T) {
	workloads := []struct {
		name string
		gen  func(rng *rand.Rand, n int) []geom.Point
	}{
		{"uniform", func(rng *rand.Rand, n int) []geom.Point {
			return workload.UniformPoints(rng, n, unitBounds())
		}},
		{"clustered", func(rng *rand.Rand, n int) []geom.Point {
			return workload.ClusteredPoints(rng, n, 5, 0.04, unitBounds())
		}},
	}
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(31))
			d := NewDynamicEngine(unitBounds())
			for batch := 0; batch < 6; batch++ {
				for _, p := range wl.gen(rng, 300) {
					if _, _, err := d.Insert(p); err != nil {
						t.Fatal(err)
					}
				}
				snap := d.Snapshot()
				for trial := 0; trial < 4; trial++ {
					area := workload.RandomPolygon(rng, workload.PolygonConfig{
						Vertices:  10,
						QuerySize: 0.05,
					}, unitBounds())
					oracle, _, err := query(snap, BruteForce, PolygonRegion(area))
					if err != nil {
						t.Fatal(err)
					}
					for _, m := range []Method{Traditional, VoronoiBFS, VoronoiBFSStrict} {
						got, _, err := query(snap, m, PolygonRegion(area))
						if err != nil {
							t.Fatalf("%s batch %d %v: %v", wl.name, batch, m, err)
						}
						if !slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(oracle))) {
							t.Fatalf("%s batch %d (%d pts) %v: %d results, oracle %d",
								wl.name, batch, snap.data.Len(), m, len(got), len(oracle))
						}
					}
					// Count agrees with the same snapshot too.
					ids, cnt, err := snap.QueryRegionSpec(context.Background(), PolygonRegion(area),
						QuerySpec{Method: VoronoiBFS, CountOnly: true})
					if err != nil || ids != nil || cnt.ResultSize != len(oracle) {
						t.Fatalf("%s batch %d CountOnly = %d (ids %v, err %v), oracle %d",
							wl.name, batch, cnt.ResultSize, ids, err, len(oracle))
					}
				}
			}
		})
	}
}

// TestLazyIndexBuiltOnceUnderConcurrentFirstUse races Traditional queries
// from several goroutines on a fresh engine — over a NewMemoryData layer,
// over a NewStoreData layer and on a dynamic epoch, each indexed by
// LazyRTreeIndex: every one must return the brute-force ids and see the one
// tree the engine packed, over the layer's own position slice. The Voronoi,
// strict and brute-force queries run before them must leave it unpacked,
// and on the dynamic engine so must the publish of the next epoch. CI
// repeats it under the race detector.
func TestLazyIndexBuiltOnceUnderConcurrentFirstUse(t *testing.T) {
	pts := workload.UniformPoints(rand.New(rand.NewSource(71)), 3000, unitBounds())
	static := func(build func() (*MemoryData, error)) func(t *testing.T) *Engine {
		return func(t *testing.T) *Engine {
			data, err := build()
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(LazyRTreeIndex(data), data)
		}
	}
	d := NewDynamicEngine(unitBounds())
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) *Engine
	}{
		{"memory", static(func() (*MemoryData, error) { return NewMemoryData(pts, unitBounds()) })},
		{"store", static(func() (*MemoryData, error) {
			return NewStoreData(pts, unitBounds(), StoreConfig{PageSize: 4096, PoolPages: 64, PayloadBytes: 64})
		})},
		{"dynamic", func(t *testing.T) *Engine {
			for _, p := range pts {
				if _, _, err := d.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			return d.Snapshot()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := tc.build(t)
			region := CircleRegion(geom.NewCircle(geom.Pt(0.6, 0.4), 0.15))
			want, _, err := query(eng, BruteForce, region)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []Method{VoronoiBFS, VoronoiBFSStrict} {
				if got, _, err := query(eng, m, region); err != nil || !slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want))) {
					t.Fatalf("%v: %d ids (err %v), oracle %d", m, len(got), err, len(want))
				}
			}
			if eng.idx.tree != nil {
				t.Fatal("a run without a Traditional query packed the engine's R-tree")
			}

			const goroutines = 8
			trees := make([]*rtree.Tree, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, st, err := query(eng, Traditional, region)
					if err != nil || !slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want))) || st.IndexNodesVisited == 0 {
						t.Errorf("goroutine %d: Traditional returned %d ids over %d nodes (err %v), oracle %d",
							g, len(got), st.IndexNodesVisited, err, len(want))
					}
					trees[g] = eng.idx.get()
				}()
			}
			wg.Wait()
			for g, tr := range trees {
				if tr == nil || tr != trees[0] {
					t.Fatalf("goroutine %d saw tree %p, goroutine 0 saw %p: packed more than once", g, tr, trees[0])
				}
			}
			if pos := eng.data.Positions(); len(eng.idx.pts) != len(pos) || &eng.idx.pts[0] != &pos[0] {
				t.Error("the packed index does not share the layer's position slice")
			}
		})
	}

	if _, _, err := d.Insert(geom.Pt(0.6, 0.4)); err != nil {
		t.Fatal(err)
	}
	if next := d.Snapshot(); next.idx.tree != nil {
		t.Fatal("publishing an epoch packed its R-tree")
	}
}
