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

// TestStoreEngineConcurrentEvictions runs several goroutines' queries on one
// store engine whose single-lock pool holds three pages, far fewer than a
// query reads, so the pages a query has pinned are evicted by the others
// while it still reads them in place. Every answer equals brute force. Run
// with -race.
func TestStoreEngineConcurrentEvictions(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	pts := workload.UniformPoints(rng, 4000, unitBounds())
	data, err := NewStoreData(pts, unitBounds(), StoreConfig{PageSize: 512, PoolPages: 3, PoolShards: 1, PayloadBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(NewRTreeIndex(pts, 16), data)
	regions := make([]Region, 8)
	oracle := make([][]int64, len(regions))
	for i := range regions {
		if i%2 == 0 {
			regions[i] = PolygonRegion(workload.RandomPolygon(rng, workload.PolygonConfig{QuerySize: 0.03}, unitBounds()))
		} else {
			regions[i] = CircleRegion(geom.Circle{Center: geom.Pt(0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64()), R: 0.1})
		}
		ids, _, err := query(eng, BruteForce, regions[i])
		if err != nil {
			t.Fatal(err)
		}
		oracle[i] = slices.Sorted(slices.Values(ids))
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for rep := 0; rep < 24; rep++ {
				i := (worker + rep) % len(regions)
				m := []Method{VoronoiBFS, VoronoiBFSStrict, Traditional}[rep%3]
				ids, _, err := query(eng, m, regions[i])
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
	if io := data.IOStats(); io.Evictions == 0 || io.PageReads <= data.Store().NumPages() {
		t.Fatalf("pool %+v over %d pages: the queries never evicted one another's pages", io, data.Store().NumPages())
	}
}
