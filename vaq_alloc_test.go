package vaq

import (
	"context"
	"math/rand"
	"testing"
)

// queryAllocs measures query — an engine's Query(ctx, region, Reuse(buf)),
// called on its concrete type as a query loop would — per call over regions
// on n points, after one warm-up pass (scratch pool, buffer growth, resident
// pages) and with every polygon region past the containment tests that make
// it build its grid — one allocation per region, once, a hundred-odd tests
// in (geom's gridAfter); it is set-up, not the warm path pinned here.
func queryAllocs(t *testing.T, n int, regions []Region, query func(r Region, buf []int64) ([]int64, error)) float64 {
	t.Helper()
	buf := make([]int64, 0, n)
	for _, r := range regions {
		for i := 0; i < 1024; i++ {
			r.ContainsPoint(r.InteriorPoint())
		}
	}
	pass := func() {
		for _, r := range regions {
			ids, err := query(r, buf)
			if err != nil || len(ids) == 0 {
				t.Fatalf("Query: %d ids, err %v", len(ids), err)
			}
		}
	}
	pass()
	return testing.AllocsPerRun(20, pass) / float64(len(regions))
}

// TestEngineQueryAllocs pins the public query path on a memory engine: the
// Reuse option's closure and the option set it is applied to are the only
// allocations between the caller and the BFS — no run closure, no result
// collector, nothing in the seed lookup.
func TestEngineQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates inside sync.Pool")
	}
	rng := rand.New(rand.NewSource(7))
	pts := UniformPoints(rng, 5000, UnitSquare())
	eng, err := NewEngine(pts, UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	regions := []Region{
		PolygonRegion(RandomQueryPolygon(rng, 10, 0.02, UnitSquare())),
		PolygonRegion(RandomQueryPolygon(rng, 10, 0.002, UnitSquare())),
		CircleRegion(NewCircle(Pt(0.5, 0.5), 0.05)),
	}
	allocs := queryAllocs(t, eng.Len(), regions, func(r Region, buf []int64) ([]int64, error) {
		return eng.Query(context.Background(), r, Reuse(buf))
	})
	t.Logf("%.2f allocs per query", allocs)
	if allocs > 2 {
		t.Fatalf("Engine.Query(ctx, r, Reuse(buf)) on a memory engine: %.2f allocs per query, want <= 2", allocs)
	}
}

// TestDynamicEngineQueryAllocs pins the same path on a dynamic engine
// between writes: pinning the published epoch allocates nothing — neither a
// core snapshot nor the Snapshot wrapping it — so a query allocates what it
// does on a static engine over the same points, and no more.
func TestDynamicEngineQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates inside sync.Pool")
	}
	rng := rand.New(rand.NewSource(9))
	pts := UniformPoints(rng, 5000, UnitSquare())
	static, err := NewEngine(pts, UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	dyn := NewDynamicEngine(UnitSquare())
	for _, p := range pts {
		if _, _, err := dyn.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	regions := []Region{
		PolygonRegion(RandomQueryPolygon(rng, 10, 0.02, UnitSquare())),
		CircleRegion(NewCircle(Pt(0.5, 0.5), 0.05)),
	}
	ctx := context.Background()
	want := queryAllocs(t, len(pts), regions, func(r Region, buf []int64) ([]int64, error) {
		return static.Query(ctx, r, Reuse(buf))
	})
	got := queryAllocs(t, len(pts), regions, func(r Region, buf []int64) ([]int64, error) {
		return dyn.Query(ctx, r, Reuse(buf))
	})
	t.Logf("%.2f allocs per query, %.2f on the static engine", got, want)
	if got > want || got > 2 {
		t.Fatalf("DynamicEngine.Query(ctx, r, Reuse(buf)) between writes: %.2f allocs per query, want <= %.2f (the static engine's) and <= 2", got, want)
	}
}

// TestShardedEngineQueryAllocs pins the same path on a 4-shard engine for
// regions that meet one shard's bounding rectangle only: the kernel's
// plan, from its pool, has one task, which runs on the calling goroutine
// into a pooled buffer; the merge copies it into the caller's, and the
// kernel adds no allocation to the static engine's.
func TestShardedEngineQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates inside sync.Pool")
	}
	rng := rand.New(rand.NewSource(11))
	pts := UniformPoints(rng, 5000, UnitSquare())
	eng, err := NewShardedEngine(pts, UnitSquare(), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	// survivors counts the shards whose bounds meet r's MBR.
	survivors := func(r Region) int {
		n := 0
		for si := range eng.NumShards() {
			if eng.ShardBounds(si).Intersects(r.Bounds()) {
				n++
			}
		}
		return n
	}
	var regions []Region
	for si := range eng.NumShards() {
		c := eng.ShardBounds(si).Center()
		regions = append(regions, CircleRegion(NewCircle(c, 0.04)))
		for len(regions) < 2*(si+1) {
			pg := RandomQueryPolygon(rng, 10, 0.01, UnitSquare())
			if r := PolygonRegion(pg); pg.Bounds().ContainsPoint(c) && survivors(r) == 1 {
				regions = append(regions, r)
			}
		}
	}
	for i, r := range regions {
		if n := survivors(r); n != 1 {
			t.Fatalf("region %d meets %d shards' bounds, want 1", i, n)
		}
	}
	allocs := queryAllocs(t, eng.Len(), regions, func(r Region, buf []int64) ([]int64, error) {
		return eng.Query(context.Background(), r, Reuse(buf))
	})
	t.Logf("%.2f allocs per query", allocs)
	if allocs > 2 {
		t.Fatalf("ShardedEngine.Query(ctx, r, Reuse(buf)) inside one shard: %.2f allocs per query, want <= 2", allocs)
	}
}

// TestStoreEngineQueryAllocs pins the same path over a paged store at the
// same bound of 2 allocations per query, page misses included: a record
// load copies nothing out of its page and a page miss on a full pool
// reuses the frame it evicts, so only the options allocate (1.00 per
// query measured). Checked with every page resident and with a pool far
// smaller than the working set (≈ 51 page misses per query).
func TestStoreEngineQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates inside sync.Pool")
	}
	rng := rand.New(rand.NewSource(8))
	pts := UniformPoints(rng, 5000, UnitSquare())
	regions := []Region{
		PolygonRegion(RandomQueryPolygon(rng, 10, 0.02, UnitSquare())),
		PolygonRegion(RandomQueryPolygon(rng, 10, 0.05, UnitSquare())),
	}
	for name, poolPages := range map[string]int{"resident": -1, "thrashing": 2} {
		eng, err := NewEngine(pts, UnitSquare(),
			WithStore(StoreConfig{PageSize: 1024, PoolPages: poolPages, PayloadBytes: 32}),
			WithBufferPoolShards(1))
		if err != nil {
			t.Fatal(err)
		}
		// Page misses per query in the steady state: one LRU and a fixed
		// access sequence, so every pass after the first misses alike.
		ctx := context.Background()
		buf := make([]int64, 0, eng.Len())
		const passes = 4
		for pass := 0; pass <= passes; pass++ {
			if pass == 1 {
				eng.ResetIOStats()
			}
			for _, r := range regions {
				if _, err := eng.Query(ctx, r, Reuse(buf)); err != nil {
					t.Fatal(err)
				}
			}
		}
		reads, _, _ := eng.IOStats()
		misses := float64(reads) / float64(passes*len(regions))
		if name == "resident" && misses != 0 {
			t.Fatalf("resident pool still reads %.1f pages per query", misses)
		}
		if name == "thrashing" && misses < 5 {
			t.Fatalf("thrashing pool reads only %.1f pages per query; the test exercises nothing", misses)
		}
		allocs := queryAllocs(t, eng.Len(), regions, func(r Region, buf []int64) ([]int64, error) {
			return eng.Query(ctx, r, Reuse(buf))
		})
		t.Logf("%s: %.2f allocs per query at %.1f page misses", name, allocs, misses)
		if allocs > 2 {
			t.Errorf("%s: %.2f allocs per query at %.1f page misses, want <= 2", name, allocs, misses)
		}
	}
}

// TestShardedEngineScatterAllocs pins the scatter path on an 8-shard
// engine: a warm QueryAll of 32 regions allocates each region's result and
// the batch's result slice, and a warm Query over several shards its
// options; both add the exec pool's goroutines and shared state. Neither
// allocates its plan, which comes from a pool, nor grows a shard's answer
// from nil — every (region, shard) answer lands in a pooled buffer the
// kernel takes back after the merge.
func TestShardedEngineScatterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates inside sync.Pool")
	}
	rng := rand.New(rand.NewSource(12))
	pts := UniformPoints(rng, 20000, UnitSquare())
	eng, err := NewShardedEngine(pts, UnitSquare(), WithShards(8), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	survivors := func(r Region) int {
		n := 0
		for si := range eng.NumShards() {
			if eng.ShardBounds(si).Intersects(r.Bounds()) {
				n++
			}
		}
		return n
	}
	var batch, spread []Region
	for len(batch) < 32 {
		var r Region = CircleRegion(NewCircle(Pt(0.1+0.8*rng.Float64(), 0.1+0.8*rng.Float64()), 0.04))
		if len(batch)%2 == 0 {
			r = PolygonRegion(RandomQueryPolygon(rng, 10, 0.01, UnitSquare()))
		}
		batch = append(batch, r)
		if survivors(r) >= 2 {
			spread = append(spread, r)
		}
	}
	if len(spread) < 4 {
		t.Fatalf("only %d of 32 regions meet two shards; the test exercises no scatter", len(spread))
	}
	for _, r := range batch {
		for i := 0; i < 1024; i++ {
			r.ContainsPoint(r.InteriorPoint())
		}
	}
	ctx := context.Background()
	queryAll := func() {
		if _, err := eng.QueryAll(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	queryAll()
	perRegion := testing.AllocsPerRun(20, queryAll) / float64(len(batch))
	single := queryAllocs(t, eng.Len(), spread, func(r Region, buf []int64) ([]int64, error) {
		return eng.Query(ctx, r, Reuse(buf))
	})
	t.Logf("QueryAll: %.2f allocs per region; Query over >= 2 shards: %.2f allocs per query", perRegion, single)
	// The floors: a batch's result slices and its result array, 1.06–1.09
	// per region; one query's options, 1. The scatter's plan and the exec
	// pool's run state come from pools: built per call they cost ≈ 0.7 per
	// region and 19 per query, and growing the shards' answers from nil
	// ≈ 10 per region and ≈ 9 per query.
	if perRegion > 1.2 {
		t.Errorf("QueryAll of 32 regions on 8 shards: %.2f allocs per region, want <= 1.2", perRegion)
	}
	if single > 1.5 {
		t.Errorf("Query(ctx, r, Reuse(buf)) over >= 2 of 8 shards: %.2f allocs per query, want <= 1.5", single)
	}
}
