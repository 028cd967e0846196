// Sharded demonstrates the Hilbert-partitioned sharded engine. The
// dataset is split into spatially coherent shards, each an independent
// engine with its own index, Voronoi topology and — store-backed, as
// here — its own record store and buffer pool. Queries run scatter-gather:
// shards whose bounds miss the query are pruned, the rest fan out onto
// the worker pool, and the per-shard results merge into one globally
// stable id set, identical to an unsharded engine's.
//
// The demo builds a single engine and an 8-shard engine over the same
// store-backed dataset, runs the same batch through both, verifies the
// results match, and prints per-engine throughput and IO counters.
//
//	go run ./examples/sharded
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"time"

	"repro"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	points := vaq.UniformPoints(rng, 200_000, vaq.UnitSquare())
	store := vaq.StoreConfig{PageSize: 4096, PoolPages: 64, PayloadBytes: 256}

	single, err := vaq.NewEngine(points, vaq.UnitSquare(), vaq.WithStore(store))
	if err != nil {
		log.Fatal(err)
	}
	const shards = 8
	sharded, err := vaq.NewShardedEngine(points, vaq.UnitSquare(),
		vaq.WithShards(shards), vaq.WithStore(store))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d points in %d shards, sizes %v\n",
		sharded.Len(), sharded.NumShards(), sharded.ShardSizes())

	regions := make([]vaq.Region, 512)
	for i := range regions {
		regions[i] = vaq.PolygonRegion(vaq.RandomQueryPolygon(rng, 10, 0.01, vaq.UnitSquare()))
	}

	// One Querier call shape on both engines; results come back in
	// ascending id order on every backend, so they compare element-wise.
	ctx := context.Background()
	start := time.Now()
	singleOut, err := single.QueryAll(ctx, regions)
	singleWall := time.Since(start)
	if err != nil {
		log.Fatal(err)
	}
	singleReads, singleHits, _ := single.IOStats()

	start = time.Now()
	var stats vaq.Stats
	shardedOut, err := sharded.QueryAll(ctx, regions, vaq.WithStatsInto(&stats))
	shardedWall := time.Since(start)
	if err != nil {
		log.Fatal(err)
	}
	shardedReads, shardedHits, _ := sharded.IOStats()

	for i := range regions {
		if len(singleOut[i]) != len(shardedOut[i]) {
			log.Fatalf("query %d: single %d ids, sharded %d",
				i, len(singleOut[i]), len(shardedOut[i]))
		}
		for j := range singleOut[i] {
			if singleOut[i][j] != shardedOut[i][j] {
				log.Fatalf("query %d: id %d differs (single %d, sharded %d)",
					i, j, singleOut[i][j], shardedOut[i][j])
			}
		}
	}

	n := len(regions)
	fmt.Printf("%d queries, %d result ids, identical result sets\n", n, stats.ResultSize)
	fmt.Printf("single engine:    %8v  (%6.0f queries/s)  %d page reads, %d cache hits\n",
		singleWall.Round(time.Millisecond), float64(n)/singleWall.Seconds(),
		singleReads, singleHits)
	fmt.Printf("%d-shard engine:   %8v  (%6.0f queries/s)  %d page reads, %d cache hits\n",
		shards, shardedWall.Round(time.Millisecond), float64(n)/shardedWall.Seconds(),
		shardedReads, shardedHits)
	fmt.Printf("wall ratio %.2fx on GOMAXPROCS=%d; aggregate cache %d vs %d pages\n",
		singleWall.Seconds()/shardedWall.Seconds(), runtime.GOMAXPROCS(0),
		shards*store.PoolPages, store.PoolPages)
	fmt.Println("(shards scatter in parallel across cores; per-shard queries use the")
	fmt.Println(" density-robust strict rule, exact on sub-sampled shard diagrams, which")
	fmt.Println(" on a polygon validates only the sites along its boundary)")
}
