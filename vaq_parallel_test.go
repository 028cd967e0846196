package vaq

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func parallelTestEngine(t testing.TB, n int, opts ...Option) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n) + 77))
	pts := UniformPoints(rng, n, UnitSquare())
	eng, err := NewEngine(pts, UnitSquare(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func sortIDs(ids []int64) []int64 {
	out := append([]int64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func idsEqual(a, b []int64) bool {
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

// mixedBatch builds a region batch alternating polygons and circles.
// customRegion hides every method of a region but Region's own.
type customRegion struct{ Region }

func mixedBatch(rng *rand.Rand, count int) []Region {
	regions := make([]Region, count)
	for i := range regions {
		if i%3 == 2 {
			regions[i] = CircleRegion(NewCircle(
				Pt(0.15+0.7*rng.Float64(), 0.15+0.7*rng.Float64()),
				0.02+0.06*rng.Float64()))
		} else {
			regions[i] = PolygonRegion(RandomQueryPolygon(rng, 10,
				[]float64{0.005, 0.02}[i%2], UnitSquare()))
		}
	}
	return regions
}

// TestQueryBatchParallelMatchesSequential runs the same mixed
// polygon/circle batch through a sequential engine and a parallelism >= 4
// engine sharing nothing but the dataset, and asserts the results match
// query for query. Run with -race.
func TestQueryBatchParallelMatchesSequential(t *testing.T) {
	const n = 6000
	seqEng := parallelTestEngine(t, n, WithParallelism(1))
	parEng := parallelTestEngine(t, n, WithParallelism(4))
	rng := rand.New(rand.NewSource(30))
	regions := mixedBatch(rng, 48)

	for _, m := range []Method{VoronoiBFS, Traditional} {
		seq, _, err := queryRegions(seqEng, m, regions)
		if err != nil {
			t.Fatalf("%v sequential: %v", m, err)
		}
		par, _, err := queryRegions(parEng, m, regions)
		if err != nil {
			t.Fatalf("%v parallel: %v", m, err)
		}
		for i := range regions {
			if !idsEqual(sortIDs(par[i]), sortIDs(seq[i])) {
				t.Fatalf("%v query %d: parallel %d ids, sequential %d",
					m, i, len(par[i]), len(seq[i]))
			}
		}
	}

	// Polygon-only public entry point too.
	areas := make([]Polygon, 24)
	for i := range areas {
		areas[i] = RandomQueryPolygon(rng, 10, 0.01, UnitSquare())
	}
	seq, _, err := queryBatch(seqEng, VoronoiBFS, areas)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := queryBatch(parEng, VoronoiBFS, areas)
	if err != nil {
		t.Fatal(err)
	}
	for i := range areas {
		if !idsEqual(sortIDs(par[i]), sortIDs(seq[i])) {
			t.Fatalf("QueryBatch query %d diverged", i)
		}
	}
}

// TestParallelBatchStatsEqualSequentialSum pins the per-worker stats merge:
// every deterministic counter of the parallel aggregate must equal the sum
// of sequential per-query stats.
func TestParallelBatchStatsEqualSequentialSum(t *testing.T) {
	eng := parallelTestEngine(t, 5000, WithParallelism(4))
	seqEng := parallelTestEngine(t, 5000, WithParallelism(1))
	rng := rand.New(rand.NewSource(31))
	regions := mixedBatch(rng, 40)
	// A custom region — here a region behind a type with only Region's
	// methods — is the one the strict rule expands by cell tests.
	for _, r := range regions[:6] {
		regions = append(regions, customRegion{r})
	}

	// Both Voronoi variants, so SegmentTests (published rule, and strict on
	// circles) and CellTests (strict rule on custom regions) are each pinned
	// with nonzero counts.
	for _, m := range []Method{VoronoiBFS, VoronoiBFSStrict} {
		// Sum sequential per-query stats one query at a time (batches of
		// one on a sequential engine), then compare against the parallel
		// aggregate.
		var want Stats
		for i := range regions {
			_, st, err := queryRegions(seqEng, m, regions[i:i+1])
			if err != nil {
				t.Fatalf("%v sequential query %d: %v", m, i, err)
			}
			want.Add(st)
		}
		if m == VoronoiBFS && want.SegmentTests == 0 {
			t.Fatal("workload produced no segment tests; test is vacuous")
		}
		if m == VoronoiBFSStrict && want.CellTests == 0 {
			t.Fatal("workload produced no cell tests; test is vacuous")
		}

		_, agg, err := queryRegions(eng, m, regions)
		if err != nil {
			t.Fatal(err)
		}
		if agg.ResultSize != want.ResultSize {
			t.Errorf("%v: ResultSize = %d, want %d", m, agg.ResultSize, want.ResultSize)
		}
		if agg.Candidates != want.Candidates {
			t.Errorf("%v: Candidates = %d, want %d", m, agg.Candidates, want.Candidates)
		}
		if agg.RedundantValidations != want.RedundantValidations {
			t.Errorf("%v: RedundantValidations = %d, want %d",
				m, agg.RedundantValidations, want.RedundantValidations)
		}
		if agg.SegmentTests != want.SegmentTests {
			t.Errorf("%v: SegmentTests = %d, want %d", m, agg.SegmentTests, want.SegmentTests)
		}
		if agg.CellTests != want.CellTests {
			t.Errorf("%v: CellTests = %d, want %d", m, agg.CellTests, want.CellTests)
		}
		if agg.IndexNodesVisited != want.IndexNodesVisited {
			t.Errorf("%v: IndexNodesVisited = %d, want %d",
				m, agg.IndexNodesVisited, want.IndexNodesVisited)
		}
		if agg.RecordsLoaded != want.RecordsLoaded {
			t.Errorf("%v: RecordsLoaded = %d, want %d", m, agg.RecordsLoaded, want.RecordsLoaded)
		}
	}
}

// TestGoroutinesShareOneEngine pins the public concurrency contract: two
// goroutines issuing Query on the SAME engine simultaneously. Run with
// -race.
func TestGoroutinesShareOneEngine(t *testing.T) {
	eng := parallelTestEngine(t, 4000)
	rng := rand.New(rand.NewSource(32))
	areas := make([]Polygon, 8)
	oracle := make([][]int64, len(areas))
	for i := range areas {
		areas[i] = RandomQueryPolygon(rng, 10, 0.02, UnitSquare())
		ids, _, err := queryWith(eng, BruteForce, areas[i])
		if err != nil {
			t.Fatal(err)
		}
		oracle[i] = sortIDs(ids)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for rep := 0; rep < 30; rep++ {
				i := (worker + rep) % len(areas)
				ids, _, err := queryWith(eng, VoronoiBFS, areas[i])
				if err != nil {
					errs <- err
					return
				}
				if !idsEqual(sortIDs(ids), oracle[i]) {
					errs <- errDiverged
					return
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

type divergedError struct{}

func (divergedError) Error() string { return "concurrent query diverged from oracle" }

var errDiverged = divergedError{}

// TestStoreEngineBatchRunsParallel pins the store-backed concurrency
// contract: the buffer pool's sharded locks and off-lock page loads let
// WithStore engines run batches on the worker pool like any other
// engine. A tiny pool forces constant eviction during the parallel
// batch. Run with -race.
func TestStoreEngineBatchRunsParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	pts := UniformPoints(rng, 2000, UnitSquare())
	eng, err := NewEngine(pts, UnitSquare(),
		WithParallelism(8),
		WithStore(StoreConfig{PageSize: 1024, PoolPages: 4, PayloadBytes: 32}))
	if err != nil {
		t.Fatal(err)
	}
	areas := make([]Polygon, 32)
	for i := range areas {
		areas[i] = RandomQueryPolygon(rng, 10, 0.02, UnitSquare())
	}
	out, agg, err := queryBatch(eng, VoronoiBFS, areas)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(areas) {
		t.Fatalf("results = %d", len(out))
	}
	if agg.RecordsLoaded == 0 {
		t.Error("store batch loaded no records")
	}
	if reads, _, ok := eng.IOStats(); !ok || reads == 0 {
		t.Errorf("expected page reads from the store batch (ok=%v reads=%d)", ok, reads)
	}
	for i, area := range areas {
		want, _, err := queryWith(eng, BruteForce, area)
		if err != nil {
			t.Fatal(err)
		}
		if !idsEqual(sortIDs(out[i]), sortIDs(want)) {
			t.Fatalf("store batch query %d diverged", i)
		}
	}
}
