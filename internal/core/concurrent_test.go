package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/workload"
)

// TestSharedEngineConcurrentQueries pins the tentpole contract directly at
// the core layer: two (and more) goroutines sharing ONE Engine — no clones
// — can Query simultaneously. Run with -race.
func TestSharedEngineConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	eng, _ := newUniformEngine(t, rng, 5000)
	areas := make([]geom.Polygon, 12)
	oracle := make([][]int64, len(areas))
	for i := range areas {
		areas[i] = workload.RandomPolygon(rng, workload.PolygonConfig{QuerySize: 0.02}, unitBounds())
		ids, _, err := query(eng, BruteForce, PolygonRegion(areas[i]))
		if err != nil {
			t.Fatal(err)
		}
		oracle[i] = slices.Sorted(slices.Values(ids))
	}

	for _, workers := range []int{2, 8} {
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				for rep := 0; rep < 25; rep++ {
					i := (worker + rep) % len(areas)
					m := []Method{VoronoiBFS, VoronoiBFSStrict, Traditional}[rep%3]
					ids, _, err := query(eng, m, PolygonRegion(areas[i]))
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
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}
