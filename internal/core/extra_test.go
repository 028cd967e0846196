package core

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/workload"
)

func TestConcurrentSharedEngineRaceFree(t *testing.T) {
	// Shared MemoryData + R-tree, one Engine shared by every goroutine. Run
	// with -race to validate the read-only sharing contract.
	rng := rand.New(rand.NewSource(2))
	eng, _ := newUniformEngine(t, rng, 5000)
	areas := make([]geom.Polygon, 16)
	for i := range areas {
		areas[i] = workload.RandomPolygon(rng, workload.PolygonConfig{QuerySize: 0.02}, unitBounds())
	}
	oracle := make([][]int64, len(areas))
	for i, area := range areas {
		ids, _, err := query(eng, BruteForce, PolygonRegion(area))
		if err != nil {
			t.Fatal(err)
		}
		oracle[i] = slices.Sorted(slices.Values(ids))
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				i := (worker + rep) % len(areas)
				ids, _, err := query(eng, VoronoiBFS, PolygonRegion(areas[i]))
				if err != nil {
					errs <- err
					return
				}
				if !slices.Equal(slices.Sorted(slices.Values(ids)), oracle[i]) {
					errs <- errMismatch(worker, i)
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

type mismatchError struct{ worker, query int }

func errMismatch(w, q int) error { return mismatchError{w, q} }
func (e mismatchError) Error() string {
	return "concurrent clone diverged from oracle"
}

func TestCountMatchesQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	eng, _ := newUniformEngine(t, rng, 3000)
	for trial := 0; trial < 20; trial++ {
		area := workload.RandomPolygon(rng, workload.PolygonConfig{QuerySize: 0.03}, unitBounds())
		ids, _, err := query(eng, VoronoiBFS, PolygonRegion(area))
		if err != nil {
			t.Fatal(err)
		}
		none, st, err := eng.QueryRegionSpec(context.Background(), PolygonRegion(area),
			QuerySpec{Method: VoronoiBFS, CountOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if none != nil {
			t.Fatalf("CountOnly materialized %d ids", len(none))
		}
		if st.ResultSize != len(ids) {
			t.Fatalf("CountOnly ResultSize = %d, query len = %d", st.ResultSize, len(ids))
		}
	}
}

// TestQueryBatchAggregates folds per-query statistics the way every batch
// executor does (Stats.Add) and checks the aggregate is the field-wise sum.
func TestQueryBatchAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	eng, _ := newUniformEngine(t, rng, 3000)
	var agg, want Stats
	for i := 0; i < 5; i++ {
		area := workload.RandomPolygon(rng, workload.PolygonConfig{QuerySize: 0.02}, unitBounds())
		_, st, err := query(eng, VoronoiBFS, PolygonRegion(area))
		if err != nil {
			t.Fatal(err)
		}
		agg.Add(st)
		want.ResultSize += st.ResultSize
		want.Candidates += st.Candidates
		want.RedundantValidations += st.RedundantValidations
		want.SegmentTests += st.SegmentTests
		want.IndexNodesVisited += st.IndexNodesVisited
		want.RecordsLoaded += st.RecordsLoaded
	}
	if agg != want {
		t.Errorf("aggregate = %+v, want %+v", agg, want)
	}
	if agg.ResultSize == 0 {
		t.Errorf("aggregate is empty: %+v", agg)
	}
}

func TestRectangleQueriesFavorTraditional(t *testing.T) {
	// The paper's introduction: for rectangular queries the traditional
	// filter is nearly exact (candidates ≈ results). Verify, and verify
	// both methods still agree.
	rng := rand.New(rand.NewSource(5))
	eng, _ := newUniformEngine(t, rng, 20000)
	for trial := 0; trial < 20; trial++ {
		rect := workload.RectanglePolygon(rng, 0.02, 0.5+rng.Float64()*2, unitBounds())
		a, stTrad, err := query(eng, Traditional, PolygonRegion(rect))
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := query(eng, VoronoiBFS, PolygonRegion(rect))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b))) {
			t.Fatal("methods disagree on rectangle query")
		}
		// Traditional candidates should be (almost) exactly the result set:
		// only boundary-straddling float effects can differ.
		if stTrad.RedundantValidations > stTrad.ResultSize/10+5 {
			t.Errorf("trial %d: rectangle query traditional redundancy %d vs result %d — MBR filter should be near-exact",
				trial, stTrad.RedundantValidations, stTrad.ResultSize)
		}
	}
}
