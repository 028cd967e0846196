package vaq

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestStoreBackedQueryAllSoak is the exec-pool × sharded-buffer-pool soak
// (run under -race): many goroutines run parallel QueryAll batches against
// one store-backed engine whose pool capacity is far below the page count,
// so evictions and contended misses on one lock shard happen mid-batch —
// and every result must stay byte-identical to the brute-force oracle.
// Swept at 1 lock shard and the default shard count.
func TestStoreBackedQueryAllSoak(t *testing.T) {
	const (
		points     = 4000
		goroutines = 6
		reps       = 3
	)
	rng := rand.New(rand.NewSource(99))
	pts := UniformPoints(rng, points, UnitSquare())
	regions := make([]Region, 12)
	for i := range regions {
		regions[i] = PolygonRegion(RandomQueryPolygon(rng, 8, 0.03, UnitSquare()))
	}
	ctx := context.Background()

	// Oracle from an in-memory engine: no pool involved.
	mem, err := NewEngine(pts, UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := mem.QueryAll(ctx, regions, UsingMethod(BruteForce))
	if err != nil {
		t.Fatal(err)
	}

	for _, poolShards := range []int{1, 0} {
		name := "shards=default"
		if poolShards == 1 {
			name = "shards=1"
		}
		t.Run(name, func(t *testing.T) {
			eng, err := NewEngine(pts, UnitSquare(),
				WithStore(StoreConfig{PageSize: 512, PoolPages: 4, PayloadBytes: 32}),
				WithBufferPoolShards(poolShards),
				WithParallelism(4))
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					// Alternate methods across goroutines: Traditional and the
					// Voronoi BFS stress different record-load patterns.
					m := VoronoiBFS
					if g%2 == 1 {
						m = Traditional
					}
					for rep := 0; rep < reps; rep++ {
						out, err := eng.QueryAll(ctx, regions, UsingMethod(m))
						if err != nil {
							t.Errorf("goroutine %d rep %d: %v", g, rep, err)
							return
						}
						for i := range oracle {
							if fmt.Sprint(out[i]) != fmt.Sprint(oracle[i]) {
								t.Errorf("goroutine %d rep %d region %d: diverged from oracle", g, rep, i)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()

			reads, hits, ok := eng.IOStats()
			if !ok || reads == 0 {
				t.Fatalf("store-backed engine reported no page reads (reads=%d ok=%v)", reads, ok)
			}
			// The pool holds 4 of ~hundreds of pages: the soak must have both
			// missed (reads) and, across identical repeated batches, hit.
			if hits == 0 {
				t.Errorf("no cache hits across %d identical batches: %d reads", goroutines*reps, reads)
			}
		})
	}
}

// TestNegativePayloadRefused: WithStore with a negative PayloadBytes fails
// the constructor with an error naming the field, on one shard or several,
// where it used to panic in makeslice.
func TestNegativePayloadRefused(t *testing.T) {
	pts := UniformPoints(rand.New(rand.NewSource(5)), 200, UnitSquare())
	for _, shards := range []int{1, 3} {
		eng, err := NewShardedEngine(pts, UnitSquare(), WithShards(shards), WithStore(StoreConfig{PayloadBytes: -1}))
		if err == nil || !strings.Contains(err.Error(), "PayloadBytes") {
			t.Errorf("%d shards: engine %v, err %v; want an error naming PayloadBytes", shards, eng, err)
		}
	}
	if _, err := NewEngine(pts, UnitSquare(), WithStore(StoreConfig{PayloadBytes: -1})); err == nil {
		t.Error("NewEngine: a negative PayloadBytes built an engine")
	}
}
