package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

func unitBounds() geom.Rect { return geom.NewRect(0, 0, 1, 1) }

func newEngine(t testing.TB, n int, seed int64) *core.Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := workload.UniformPoints(rng, n, unitBounds())
	data, err := core.NewMemoryData(pts, unitBounds())
	if err != nil {
		t.Fatal(err)
	}
	return core.NewEngine(core.NewRTreeIndex(pts, 16), data)
}

// mixedRegions builds a batch alternating random polygons and circles — the
// two public query shapes sharing one batch.
func mixedRegions(rng *rand.Rand, count int) []core.Region {
	regions := make([]core.Region, count)
	for i := range regions {
		if i%2 == 0 {
			pg := workload.RandomPolygon(rng, workload.PolygonConfig{
				Vertices:  10,
				QuerySize: []float64{0.005, 0.01, 0.04}[i%3],
			}, unitBounds())
			regions[i] = core.PolygonRegion(pg)
		} else {
			c := geom.NewCircle(geom.Pt(0.1+0.8*rng.Float64(), 0.1+0.8*rng.Float64()),
				0.02+0.08*rng.Float64())
			regions[i] = core.CircleRegion(c)
		}
	}
	return regions
}

func TestParallelMatchesSequentialQueryForQuery(t *testing.T) {
	eng := newEngine(t, 8000, 1)
	rng := rand.New(rand.NewSource(2))
	regions := mixedRegions(rng, 64)

	for _, m := range []core.Method{core.Traditional, core.VoronoiBFS} {
		seq, _, err := QueryBatch(context.Background(), eng, regions, core.QuerySpec{Method: m}, Options{NumWorkers: 1})
		if err != nil {
			t.Fatalf("%v sequential: %v", m, err)
		}
		for _, workers := range []int{2, 4, 8} {
			par, _, err := QueryBatch(context.Background(), eng, regions, core.QuerySpec{Method: m}, Options{NumWorkers: workers})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", m, workers, err)
			}
			for i := range regions {
				if !slices.Equal(slices.Sorted(slices.Values(par[i])), slices.Sorted(slices.Values(seq[i]))) {
					t.Fatalf("%v workers=%d: query %d diverged (%d vs %d ids)",
						m, workers, i, len(par[i]), len(seq[i]))
				}
			}
		}
	}
}

func TestAggregateStatsEqualSumOfSequentialStats(t *testing.T) {
	// The merge of per-worker stats must equal the sum of sequential
	// per-query stats, counter for counter.
	eng := newEngine(t, 5000, 3)
	rng := rand.New(rand.NewSource(4))
	regions := mixedRegions(rng, 40)

	var want core.Stats
	for i, region := range regions {
		_, st, err := eng.QueryRegionSpec(context.Background(), region, core.QuerySpec{Method: core.VoronoiBFS})
		if err != nil {
			t.Fatalf("sequential query %d: %v", i, err)
		}
		want.Add(st)
	}

	_, agg, err := QueryBatch(context.Background(), eng, regions, core.QuerySpec{Method: core.VoronoiBFS}, Options{NumWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if agg.ResultSize != want.ResultSize {
		t.Errorf("ResultSize = %d, want %d", agg.ResultSize, want.ResultSize)
	}
	if agg.Candidates != want.Candidates {
		t.Errorf("Candidates = %d, want %d", agg.Candidates, want.Candidates)
	}
	if agg.RedundantValidations != want.RedundantValidations {
		t.Errorf("RedundantValidations = %d, want %d", agg.RedundantValidations, want.RedundantValidations)
	}
	if agg.SegmentTests != want.SegmentTests {
		t.Errorf("SegmentTests = %d, want %d", agg.SegmentTests, want.SegmentTests)
	}
	if agg.IndexNodesVisited != want.IndexNodesVisited {
		t.Errorf("IndexNodesVisited = %d, want %d", agg.IndexNodesVisited, want.IndexNodesVisited)
	}
	if agg.RecordsLoaded != want.RecordsLoaded {
		t.Errorf("RecordsLoaded = %d, want %d", agg.RecordsLoaded, want.RecordsLoaded)
	}
}

// TestBatchErrorStopsAndSurfaces: a query the engine refuses fails the
// batch, on one worker and on four, with the engine's own error wrapped in
// the batch's context.
func TestBatchErrorStopsAndSurfaces(t *testing.T) {
	eng := newEngine(t, 2000, 5)
	rng := rand.New(rand.NewSource(5))
	regions := mixedRegions(rng, 32)
	spec := core.QuerySpec{Method: core.Method(99)}
	_, _, want := eng.QueryRegionSpec(context.Background(), regions[0], spec)
	if want == nil || !strings.Contains(want.Error(), "unknown method") {
		t.Fatalf("engine error = %v, want an unknown method", want)
	}
	for _, workers := range []int{1, 4} {
		out, _, err := QueryBatch(context.Background(), eng, regions, spec, Options{NumWorkers: workers})
		if err == nil || errors.Unwrap(err) == nil || errors.Unwrap(err).Error() != want.Error() {
			t.Errorf("workers=%d: err = %v, want the engine's %q wrapped", workers, err, want)
		}
		if err != nil && !strings.Contains(err.Error(), "batch query") {
			t.Errorf("workers=%d: error lacks batch context: %v", workers, err)
		}
		if out != nil {
			t.Errorf("workers=%d: %d results alongside the error", workers, len(out))
		}
	}
}

func TestEmptyAndOversubscribedBatches(t *testing.T) {
	eng := newEngine(t, 500, 6)
	out, agg, err := QueryBatch(context.Background(), eng, nil, core.QuerySpec{Method: core.VoronoiBFS}, Options{NumWorkers: 4})
	if err != nil || out != nil {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
	}
	if agg.Candidates != 0 {
		t.Errorf("empty batch did work: %+v", agg)
	}

	// More workers than queries must clamp, not deadlock or skip.
	rng := rand.New(rand.NewSource(7))
	regions := mixedRegions(rng, 3)
	out, _, err = QueryBatch(context.Background(), eng, regions, core.QuerySpec{Method: core.VoronoiBFS}, Options{NumWorkers: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i, ids := range out {
		want, _, err := eng.QueryRegionSpec(context.Background(), regions[i], core.QuerySpec{Method: core.VoronoiBFS})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(slices.Sorted(slices.Values(ids)), slices.Sorted(slices.Values(want))) {
			t.Fatalf("query %d diverged with oversubscribed pool", i)
		}
	}
}

// TestRunStartsCleanAfterFailure: Run's state is pooled, so a Run after
// a failed, a cancelled or a narrower one must still run every task once,
// on workers in [0, Workers(n)), and report no stale error — also while
// other goroutines Run at the same time.
func TestRunStartsCleanAfterFailure(t *testing.T) {
	boom := errors.New("boom")
	rounds := func(g int) error {
		for round := range 20 {
			workers := 2 + (g+round)%3
			opts := Options{NumWorkers: workers}
			err := Run(context.Background(), 8, opts, func(_, i int) error {
				if i == 3 {
					return boom
				}
				return nil
			})
			if err != boom {
				return fmt.Errorf("round %d: failing run: err = %v, want boom", round, err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			err = Run(ctx, 8, opts, func(_, i int) error {
				cancel()
				return nil
			})
			if err != context.Canceled {
				return fmt.Errorf("round %d: cancelled run: err = %v, want %v", round, err, context.Canceled)
			}
			seen := make([]atomic.Int32, 64)
			err = Run(context.Background(), len(seen), opts, func(w, i int) error {
				if w < 0 || w >= workers {
					return fmt.Errorf("task %d on worker %d of %d", i, w, workers)
				}
				seen[i].Add(1)
				return nil
			})
			if err != nil {
				return fmt.Errorf("round %d: clean run: %v", round, err)
			}
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					return fmt.Errorf("round %d: task %d ran %d times", round, i, c)
				}
			}
		}
		return nil
	}
	if err := rounds(0); err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = rounds(g)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// Batch throughput is measured at the public API level by the repository
// benchmark's sharded-batch workload (exec.* metrics).
