package geom_test

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	vaq "repro"
	"repro/internal/geom"
)

// TestGridPublishedOnceUnderConcurrentUse crosses the lazy-build threshold
// of one shared region from many goroutines at once — a parallel QueryAll
// whose every slot is that region, plus raw ContainsPoint callers — and
// checks that every answer along the way equals brute force over the plain
// polygon and that the region built its grid exactly once. Run it under
// -race -count=10.
func TestGridPublishedOnceUnderConcurrentUse(t *testing.T) {
	builds := geom.CountGridBuilds(t)
	rng := rand.New(rand.NewSource(23))
	pts := vaq.UniformPoints(rng, 4000, vaq.UnitSquare())
	eng, err := vaq.NewEngine(pts, vaq.UnitSquare(), vaq.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 12
	for round := 0; round < rounds; round++ {
		pg := vaq.RandomQueryPolygon(rng, 10, 0.2, vaq.UnitSquare())
		var want []int64
		for id, p := range pts {
			if pg.ContainsPoint(p) {
				want = append(want, int64(id))
			}
		}
		if len(want) < geom.GridAfter {
			t.Fatalf("round %d: only %d points inside; the threshold is never crossed under load", round, len(want))
		}
		pp := geom.Prepare(pg)
		regions := make([]vaq.Region, 16)
		for i := range regions {
			regions[i] = pp
		}

		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := g; i < len(pts); i += 4 {
					if got := pp.ContainsPoint(pts[i]); got != pg.ContainsPoint(pts[i]) {
						t.Errorf("round %d: ContainsPoint(%v) = %v while the grid was being published", round, pts[i], got)
						return
					}
				}
			}(g)
		}
		close(start)
		results, err := eng.QueryAll(context.Background(), regions)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		for i, ids := range results {
			if !slices.Equal(ids, want) {
				t.Fatalf("round %d, slot %d: %d ids, brute force %d", round, i, len(ids), len(want))
			}
		}
		if !pp.HasGrid() {
			t.Fatalf("round %d: no grid after %d containment tests", round, len(pts))
		}
	}
	if n := builds.Load(); n != rounds {
		t.Fatalf("%d grid builds over %d regions, want one each", n, rounds)
	}
}
