package shard

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/workload"
)

func unitBounds() geom.Rect { return geom.NewRect(0, 0, 1, 1) }

// memBuild is the BuildFunc used throughout the tests: in-memory data, STR
// R-tree, exactly the single-engine construction.
func memBuild(_ int, pts []geom.Point, bounds geom.Rect) (*core.Engine, error) {
	data, err := core.NewMemoryData(pts, bounds)
	if err != nil {
		return nil, err
	}
	return core.NewEngine(core.NewRTreeIndex(pts, 16), data), nil
}

func newSharded(t testing.TB, pts []geom.Point, shards int) *Engine {
	t.Helper()
	e, err := New(pts, unitBounds(), Config{Shards: shards, Build: memBuild})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newOracle(t testing.TB, pts []geom.Point) *core.Engine {
	t.Helper()
	eng, err := memBuild(0, pts, unitBounds())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// query runs region with method m and no deadline on a sharded engine or
// the single-engine oracle.
func query(q interface {
	QueryRegionSpec(context.Context, core.Region, core.QuerySpec) ([]int64, core.Stats, error)
}, m core.Method, region core.Region) ([]int64, core.Stats, error) {
	return q.QueryRegionSpec(context.Background(), region, core.QuerySpec{Method: m})
}

func sorted(ids []int64) []int64 {
	out := append([]int64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// testWorkloads returns the uniform and clustered datasets the conformance
// grid runs over.
func testWorkloads(n int) map[string][]geom.Point {
	return map[string][]geom.Point{
		"uniform":   workload.UniformPoints(rand.New(rand.NewSource(41)), n, unitBounds()),
		"clustered": workload.ClusteredPoints(rand.New(rand.NewSource(42)), n, 8, 0.03, unitBounds()),
	}
}

var testShardCounts = []int{1, 2, 7, 16}

// TestConformanceToSingleEngine is the acceptance grid: every query method
// × shard counts 1/2/7/16 × uniform and clustered workloads must return
// the exact sorted global id set of a single engine over the same points.
func TestConformanceToSingleEngine(t *testing.T) {
	const n = 3000
	ctx := context.Background()
	for wname, pts := range testWorkloads(n) {
		oracle := newOracle(t, pts)
		rng := rand.New(rand.NewSource(43))
		areas := make([]geom.Polygon, 12)
		circles := make([]geom.Circle, 4)
		for i := range areas {
			areas[i] = workload.RandomPolygon(rng, workload.PolygonConfig{
				Vertices:  10,
				QuerySize: []float64{0.004, 0.02, 0.08}[i%3],
			}, unitBounds())
		}
		for i := range circles {
			circles[i] = geom.NewCircle(
				geom.Pt(0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64()),
				0.01+0.1*rng.Float64())
		}

		for _, shards := range testShardCounts {
			se := newSharded(t, pts, shards)
			if got := se.NumShards(); got != shards {
				t.Fatalf("%s: NumShards = %d, want %d", wname, got, shards)
			}
			name := fmt.Sprintf("%s/shards=%d", wname, shards)

			for _, m := range []core.Method{core.Traditional, core.VoronoiBFS, core.VoronoiBFSStrict, core.BruteForce} {
				for ai, area := range areas {
					want, _, err := query(oracle, m, core.PolygonRegion(area))
					if err != nil {
						t.Fatalf("%s %v: oracle: %v", name, m, err)
					}
					got, _, err := query(se, m, core.PolygonRegion(area))
					if err != nil {
						t.Fatalf("%s %v: sharded: %v", name, m, err)
					}
					if !equalIDs(got, sorted(want)) {
						t.Errorf("%s %v area %d: %d ids, oracle %d", name, m, ai, len(got), len(want))
					}

					none, cst, err := se.QueryRegionSpec(ctx, core.PolygonRegion(area), core.QuerySpec{Method: m, CountOnly: true})
					if err != nil {
						t.Fatalf("%s %v: count: %v", name, m, err)
					}
					if none != nil || cst.ResultSize != len(want) {
						t.Errorf("%s %v area %d: CountOnly = %d (ids %v), want %d", name, m, ai, cst.ResultSize, none, len(want))
					}
				}
				for ci, c := range circles {
					want, _, err := query(oracle, m, core.CircleRegion(c))
					if err != nil {
						t.Fatalf("%s %v: oracle circle: %v", name, m, err)
					}
					got, _, err := query(se, m, core.CircleRegion(c))
					if err != nil {
						t.Fatalf("%s %v: sharded circle: %v", name, m, err)
					}
					if !equalIDs(got, sorted(want)) {
						t.Errorf("%s %v circle %d diverged", name, m, ci)
					}
				}
			}

			// Batched entry point, mixed polygons and circles.
			regions := make([]core.Region, 0, len(areas)+len(circles))
			for _, a := range areas {
				regions = append(regions, core.PolygonRegion(a))
			}
			for _, c := range circles {
				regions = append(regions, core.CircleRegion(c))
			}
			spec := core.QuerySpec{Method: core.VoronoiBFS}
			got, _, err := se.QueryRegionsSpec(ctx, regions, spec)
			if err != nil {
				t.Fatalf("%s: QueryRegionsSpec: %v", name, err)
			}
			want, _, err := exec.QueryBatch(ctx, oracle, regions, spec, exec.Options{NumWorkers: 1})
			if err != nil {
				t.Fatalf("%s: oracle batch: %v", name, err)
			}
			for i := range regions {
				if !equalIDs(got[i], sorted(want[i])) {
					t.Errorf("%s: batch query %d diverged", name, i)
				}
			}
		}
	}
}

// TestGlobalIDStability pins that results are identical — ids and order —
// across every shard count, i.e. the global id remapping is stable.
func TestGlobalIDStability(t *testing.T) {
	const n = 2500
	pts := workload.UniformPoints(rand.New(rand.NewSource(44)), n, unitBounds())
	rng := rand.New(rand.NewSource(45))
	area := workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.05}, unitBounds())

	var first []int64
	for _, shards := range testShardCounts {
		se := newSharded(t, pts, shards)
		got, _, err := query(se, core.VoronoiBFS, core.PolygonRegion(area))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got
			continue
		}
		if !equalIDs(got, first) {
			t.Errorf("shards=%d: result differs from shards=%d", shards, testShardCounts[0])
		}
	}
	// And ids address the same coordinates as the input slice.
	for _, id := range first {
		if !area.ContainsPoint(pts[id]) {
			t.Errorf("id %d maps outside the area", id)
		}
	}
}

// TestShardPartitionInvariants pins the partition: every point lands in
// exactly one shard, shard sizes are near-equal, and each shard's bounds
// contain its points.
func TestShardPartitionInvariants(t *testing.T) {
	const n = 1000
	for wname, pts := range testWorkloads(n) {
		for _, shards := range []int{1, 5, 16, n, n * 2} {
			se := newSharded(t, pts, shards)
			wantShards := shards
			if wantShards > n {
				wantShards = n
			}
			if se.NumShards() != wantShards {
				t.Fatalf("%s: NumShards = %d, want %d", wname, se.NumShards(), wantShards)
			}
			sizes := se.ShardSizes()
			total, min, max := 0, n, 0
			for _, s := range sizes {
				total += s
				if s < min {
					min = s
				}
				if s > max {
					max = s
				}
			}
			if total != n {
				t.Errorf("%s shards=%d: sizes sum to %d", wname, shards, total)
			}
			if max-min > 1 {
				t.Errorf("%s shards=%d: size spread %d..%d", wname, shards, min, max)
			}
			for si := 0; si < se.NumShards(); si++ {
				b := se.ShardBounds(si)
				if !unitBounds().ContainsRect(b) {
					t.Errorf("%s shard %d: bounds %v outside universe", wname, si, b)
				}
			}
		}
	}
}

// TestShardPruning pins the scatter-gather pruning: a query far from most
// shards must not touch them (visible through per-shard stats staying
// zero on a 1-shard-wide query against high shard counts).
func TestShardPruning(t *testing.T) {
	const n = 2000
	pts := workload.UniformPoints(rand.New(rand.NewSource(46)), n, unitBounds())
	se := newSharded(t, pts, 16)

	// A tiny query near one corner: its MBR misses most shard MBRs.
	area := geom.MustPolygon([]geom.Point{
		geom.Pt(0.01, 0.01), geom.Pt(0.03, 0.012), geom.Pt(0.02, 0.03),
	})
	alive := se.survivors(nil, core.PolygonRegion(area))
	if len(alive) == 0 || len(alive) >= se.NumShards() {
		t.Fatalf("pruning vacuous: %d of %d shards survive", len(alive), se.NumShards())
	}

	// And an off-universe query prunes everything.
	far := geom.MustPolygon([]geom.Point{
		geom.Pt(5, 5), geom.Pt(6, 5), geom.Pt(5.5, 6),
	})
	ids, st, err := query(se, core.VoronoiBFS, core.PolygonRegion(far))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 || st.Candidates != 0 || st.IndexNodesVisited != 0 {
		t.Errorf("off-universe query did work: ids=%d stats=%+v", len(ids), st)
	}
}

// TestShardedStatsAggregate pins that the sharded aggregate equals the sum
// of per-shard sequential stats for the same scatter.
func TestShardedStatsAggregate(t *testing.T) {
	const n = 2000
	pts := workload.UniformPoints(rand.New(rand.NewSource(47)), n, unitBounds())
	se := newSharded(t, pts, 7)
	rng := rand.New(rand.NewSource(48))
	area := workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.1}, unitBounds())
	region := core.PolygonRegion(area)

	// Shard-local scatter executes VoronoiBFS with the strict expansion
	// rule (see shardMethod), so replay the scatter with it.
	var want core.Stats
	for _, si := range se.survivors(nil, region) {
		_, st, err := query(se.ShardEngine(si), core.VoronoiBFSStrict, region)
		if err != nil {
			t.Fatal(err)
		}
		want.Add(st)
	}
	if want.Candidates == 0 {
		t.Fatal("workload produced no candidates; test is vacuous")
	}

	_, agg, err := query(se, core.VoronoiBFS, core.PolygonRegion(area))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Candidates != want.Candidates ||
		agg.ResultSize != want.ResultSize ||
		agg.SegmentTests != want.SegmentTests ||
		agg.IndexNodesVisited != want.IndexNodesVisited ||
		agg.RecordsLoaded != want.RecordsLoaded {
		t.Errorf("aggregate %+v, want %+v", agg, want)
	}
}

// TestConcurrentShardedQueries hammers one sharded engine from several
// goroutines mixing single queries, counts and batches. Run with -race.
func TestConcurrentShardedQueries(t *testing.T) {
	const n = 3000
	pts := workload.UniformPoints(rand.New(rand.NewSource(49)), n, unitBounds())
	se := newSharded(t, pts, 7)
	oracle := newOracle(t, pts)

	rng := rand.New(rand.NewSource(50))
	areas := make([]geom.Polygon, 6)
	oracleIDs := make([][]int64, len(areas))
	for i := range areas {
		areas[i] = workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.03}, unitBounds())
		ids, _, err := query(oracle, core.BruteForce, core.PolygonRegion(areas[i]))
		if err != nil {
			t.Fatal(err)
		}
		oracleIDs[i] = sorted(ids)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for rep := 0; rep < 15; rep++ {
				i := (worker + rep) % len(areas)
				switch rep % 3 {
				case 0:
					ids, _, err := query(se, core.VoronoiBFS, core.PolygonRegion(areas[i]))
					if err != nil {
						errs <- err
						return
					}
					if !equalIDs(ids, oracleIDs[i]) {
						errs <- fmt.Errorf("worker %d: query %d diverged", worker, i)
						return
					}
				case 1:
					_, cst, err := se.QueryRegionSpec(context.Background(), core.PolygonRegion(areas[i]),
						core.QuerySpec{Method: core.Traditional, CountOnly: true})
					if err != nil {
						errs <- err
						return
					}
					if cst.ResultSize != len(oracleIDs[i]) {
						errs <- fmt.Errorf("worker %d: count %d diverged", worker, i)
						return
					}
				default:
					j := (i + 1) % len(areas)
					out, _, err := se.QueryRegionsSpec(context.Background(),
						[]core.Region{core.PolygonRegion(areas[i]), core.PolygonRegion(areas[j])},
						core.QuerySpec{Method: core.VoronoiBFS})
					if err != nil {
						errs <- err
						return
					}
					if !equalIDs(out[0], oracleIDs[i]) || !equalIDs(out[1], oracleIDs[j]) {
						errs <- fmt.Errorf("worker %d: batch %d diverged", worker, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestBuildErrors pins constructor validation.
func TestBuildErrors(t *testing.T) {
	pts := workload.UniformPoints(rand.New(rand.NewSource(51)), 100, unitBounds())
	if _, err := New(pts, unitBounds(), Config{Shards: 4}); err == nil {
		t.Error("nil Build accepted")
	}
	if _, err := New(nil, unitBounds(), Config{Shards: 4, Build: memBuild}); err == nil {
		t.Error("empty dataset accepted")
	}
	wantErr := fmt.Errorf("boom")
	_, err := New(pts, unitBounds(), Config{
		Shards: 4,
		Build: func(si int, _ []geom.Point, _ geom.Rect) (*core.Engine, error) {
			if si == 2 {
				return nil, wantErr
			}
			return memBuild(si, nil, unitBounds()) // never reached for si==2
		},
	})
	if err == nil {
		t.Fatal("builder error swallowed")
	}
}

// TestSingleShardMatchesUnsharded sanity-checks the degenerate case: one
// shard is just the single engine plus remapping and sorting.
func TestSingleShardMatchesUnsharded(t *testing.T) {
	const n = 1200
	pts := workload.UniformPoints(rand.New(rand.NewSource(52)), n, unitBounds())
	se := newSharded(t, pts, 1)
	oracle := newOracle(t, pts)
	rng := rand.New(rand.NewSource(53))
	for rep := 0; rep < 10; rep++ {
		area := workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 8, QuerySize: 0.02}, unitBounds())
		want, _, err := query(oracle, core.VoronoiBFS, core.PolygonRegion(area))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := query(se, core.VoronoiBFS, core.PolygonRegion(area))
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(got, sorted(want)) {
			t.Fatalf("rep %d diverged", rep)
		}
	}
}

// TestExecRunPrimitive covers the exported pool primitive the scatter path
// rides on: full coverage of indexes, per-worker slots in range, error
// indexing, sequential fallback.
func TestExecRunPrimitive(t *testing.T) {
	for _, workers := range []int{1, 4} {
		opts := exec.Options{NumWorkers: workers, Chunk: 2}
		hits := make([]int32, 100)
		err := exec.Run(context.Background(), len(hits), opts, func(worker, i int) error {
			if worker < 0 || worker >= opts.Workers(len(hits)) {
				return fmt.Errorf("worker %d out of range", worker)
			}
			hits[i]++ // distinct i per call; no two workers share an index
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, h)
			}
		}

		err = exec.Run(context.Background(), 10, opts, func(_, i int) error {
			if i >= 3 {
				return fmt.Errorf("fail at %d", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: error swallowed", workers)
		}
	}
	if err := exec.Run(context.Background(), 0, exec.Options{}, func(_, _ int) error { return fmt.Errorf("never") }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
}

// customRegion hides every optional interface of the region it wraps, as a
// caller's own Region type would.
type customRegion struct{ core.Region }

// TestShardedVoronoiUsesStrictExpansion pins the density-robustness
// upgrade: shard-local scatter must run VoronoiBFS with the strict rule,
// because the published segment heuristic can strand result islands on
// sub-sampled shard diagrams; and the caller's method must still be
// reported. On a polygon the strict rule traces the boundary instead of
// testing cells, so the upgrade shows as no segment tests and the strict
// rule's candidate count, below what the cell tests validate on the same
// polygon as a custom region. A circle is convex, so there the strict rule
// is the segment rule and the upgrade does not show.
func TestShardedVoronoiUsesStrictExpansion(t *testing.T) {
	const n = 20000
	pts := workload.UniformPoints(rand.New(rand.NewSource(54)), n, unitBounds())
	se := newSharded(t, pts, 7)
	rng := rand.New(rand.NewSource(55))
	area := workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.05}, unitBounds())

	_, st, err := query(se, core.VoronoiBFS, core.PolygonRegion(area))
	if err != nil {
		t.Fatal(err)
	}
	if st.CellTests != 0 || st.SegmentTests != 0 {
		t.Errorf("expected the traced strict rule, got %d cell tests / %d segment tests",
			st.CellTests, st.SegmentTests)
	}

	// The explicit strict and traditional methods pass through unchanged.
	_, strict, err := query(se, core.VoronoiBFSStrict, core.PolygonRegion(area))
	if err != nil {
		t.Fatal(err)
	}
	if strict.CellTests != 0 || strict.SegmentTests != 0 || strict.Candidates != st.Candidates {
		t.Errorf("strict: got %d candidates, %d cell tests / %d segment tests; upgraded VoronoiBFS %d candidates",
			strict.Candidates, strict.CellTests, strict.SegmentTests, st.Candidates)
	}
	_, cells, err := query(se, core.VoronoiBFS, customRegion{core.PolygonRegion(area)})
	if err != nil {
		t.Fatal(err)
	}
	if cells.CellTests == 0 || cells.SegmentTests != 0 || cells.Candidates <= strict.Candidates {
		t.Errorf("custom region: %d candidates, %d cell tests / %d segment tests; traced %d candidates",
			cells.Candidates, cells.CellTests, cells.SegmentTests, strict.Candidates)
	}
	_, st, err = query(se, core.VoronoiBFS, core.CircleRegion(geom.Circle{Center: area.InteriorPoint(), R: 0.05}))
	if err != nil {
		t.Fatal(err)
	}
	if st.CellTests != 0 || st.SegmentTests == 0 {
		t.Errorf("circle: expected segment-test expansion, got %d cell tests / %d segment tests",
			st.CellTests, st.SegmentTests)
	}
	_, st, err = query(se, core.Traditional, core.PolygonRegion(area))
	if err != nil {
		t.Fatal(err)
	}
	if st.CellTests != 0 || st.SegmentTests != 0 {
		t.Errorf("traditional: got %d cell tests / %d segment tests", st.CellTests, st.SegmentTests)
	}
}
