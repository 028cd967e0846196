// Benchmarks regenerating the paper's evaluation, one per table and
// figure. Each benchmark measures per-query latency of both methods on the
// paper's workload and reports the candidate statistics the paper plots as
// custom benchmark metrics (candidates/op, redundant/op).
//
// The full sweeps with paper-style formatted tables are produced by
// cmd/areabench; these testing.B benchmarks cover the same configurations
// in a form `go test -bench` can run and compare over time.
//
// Datasets are cached per size across benchmarks to keep setup cost
// amortized; use -benchtime to control measurement length.
package vaq

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// benchDataSizes is the subset of the paper's 1E5..1E6 sweep exercised by
// `go test -bench`. The full ten-point sweep runs via cmd/areabench.
var benchDataSizes = []int{100_000, 300_000, 1_000_000}

// benchQuerySizes matches Table II exactly.
var benchQuerySizes = []float64{0.01, 0.02, 0.04, 0.08, 0.16, 0.32}

var benchCache struct {
	sync.Mutex
	engines map[int]*Engine
}

func benchEngine(b *testing.B, n int) *Engine {
	b.Helper()
	benchCache.Lock()
	defer benchCache.Unlock()
	if benchCache.engines == nil {
		benchCache.engines = make(map[int]*Engine)
	}
	if eng, ok := benchCache.engines[n]; ok {
		return eng
	}
	rng := rand.New(rand.NewSource(int64(n)))
	pts := UniformPoints(rng, n, UnitSquare())
	eng, err := NewEngine(pts, UnitSquare())
	if err != nil {
		b.Fatal(err)
	}
	benchCache.engines[n] = eng
	return eng
}

func benchAreas(seed int64, querySize float64, count int) []Polygon {
	rng := rand.New(rand.NewSource(seed))
	areas := make([]Polygon, count)
	for i := range areas {
		areas[i] = RandomQueryPolygon(rng, 10, querySize, UnitSquare())
	}
	return areas
}

// runAreaQueries measures m over pre-generated areas and reports candidate
// metrics.
func runAreaQueries(b *testing.B, eng *Engine, m Method, areas []Polygon) {
	b.Helper()
	var candidates, redundant, results int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := queryWith(eng, m, areas[i%len(areas)])
		if err != nil {
			b.Fatal(err)
		}
		candidates += st.Candidates
		redundant += st.RedundantValidations
		results += st.ResultSize
	}
	b.ReportMetric(float64(candidates)/float64(b.N), "candidates/op")
	b.ReportMetric(float64(redundant)/float64(b.N), "redundant/op")
	b.ReportMetric(float64(results)/float64(b.N), "results/op")
}

// BenchmarkTable1_DataSize reproduces Table I: both methods, data size
// swept, query size fixed at 1%.
func BenchmarkTable1_DataSize(b *testing.B) {
	for _, n := range benchDataSizes {
		areas := benchAreas(int64(n)+1, 0.01, 64)
		b.Run(fmt.Sprintf("n=%d/traditional", n), func(b *testing.B) {
			runAreaQueries(b, benchEngine(b, n), Traditional, areas)
		})
		b.Run(fmt.Sprintf("n=%d/voronoi", n), func(b *testing.B) {
			runAreaQueries(b, benchEngine(b, n), VoronoiBFS, areas)
		})
	}
}

// BenchmarkFig4_TimeVsDataSize reproduces Figure 4 (time cost vs data
// size): the ns/op column across sub-benchmarks is the figure's y axis.
func BenchmarkFig4_TimeVsDataSize(b *testing.B) {
	for _, n := range benchDataSizes {
		areas := benchAreas(int64(n)+2, 0.01, 64)
		for _, m := range []Method{Traditional, VoronoiBFS} {
			b.Run(fmt.Sprintf("n=%d/%v", n, m), func(b *testing.B) {
				runAreaQueries(b, benchEngine(b, n), m, areas)
			})
		}
	}
}

// BenchmarkFig5_RedundantVsDataSize reproduces Figure 5 (redundant
// validations vs data size): read the redundant/op metric.
func BenchmarkFig5_RedundantVsDataSize(b *testing.B) {
	for _, n := range benchDataSizes {
		areas := benchAreas(int64(n)+3, 0.01, 64)
		for _, m := range []Method{Traditional, VoronoiBFS} {
			b.Run(fmt.Sprintf("n=%d/%v", n, m), func(b *testing.B) {
				runAreaQueries(b, benchEngine(b, n), m, areas)
			})
		}
	}
}

// BenchmarkTable2_QuerySize reproduces Table II: both methods, query size
// swept 1..32%, data size fixed at 1E5.
func BenchmarkTable2_QuerySize(b *testing.B) {
	const n = 100_000
	for _, qs := range benchQuerySizes {
		areas := benchAreas(int64(qs*1000)+4, qs, 64)
		b.Run(fmt.Sprintf("qs=%g%%/traditional", qs*100), func(b *testing.B) {
			runAreaQueries(b, benchEngine(b, n), Traditional, areas)
		})
		b.Run(fmt.Sprintf("qs=%g%%/voronoi", qs*100), func(b *testing.B) {
			runAreaQueries(b, benchEngine(b, n), VoronoiBFS, areas)
		})
	}
}

// BenchmarkFig6_TimeVsQuerySize reproduces Figure 6 (time cost vs query
// size).
func BenchmarkFig6_TimeVsQuerySize(b *testing.B) {
	const n = 100_000
	for _, qs := range benchQuerySizes {
		areas := benchAreas(int64(qs*1000)+5, qs, 64)
		for _, m := range []Method{Traditional, VoronoiBFS} {
			b.Run(fmt.Sprintf("qs=%g%%/%v", qs*100, m), func(b *testing.B) {
				runAreaQueries(b, benchEngine(b, n), m, areas)
			})
		}
	}
}

// BenchmarkFig7_RedundantVsQuerySize reproduces Figure 7 (redundant
// validations vs query size): read the redundant/op metric.
func BenchmarkFig7_RedundantVsQuerySize(b *testing.B) {
	const n = 100_000
	for _, qs := range benchQuerySizes {
		areas := benchAreas(int64(qs*1000)+6, qs, 64)
		for _, m := range []Method{Traditional, VoronoiBFS} {
			b.Run(fmt.Sprintf("qs=%g%%/%v", qs*100, m), func(b *testing.B) {
				runAreaQueries(b, benchEngine(b, n), m, areas)
			})
		}
	}
}

// BenchmarkAblationExpansionRule compares the published segment-expansion
// rule with the strict cell-intersection rule (README.md, "Expansion
// rules").
func BenchmarkAblationExpansionRule(b *testing.B) {
	const n = 100_000
	areas := benchAreas(7, 0.01, 64)
	b.Run("published", func(b *testing.B) {
		runAreaQueries(b, benchEngine(b, n), VoronoiBFS, areas)
	})
	b.Run("strict", func(b *testing.B) {
		runAreaQueries(b, benchEngine(b, n), VoronoiBFSStrict, areas)
	})
}

// BenchmarkAblationStoreIO measures both methods against the paged store
// (the paper's IO-bound regime) with a pool holding ~3% of the pages.
func BenchmarkAblationStoreIO(b *testing.B) {
	const n = 100_000
	rng := rand.New(rand.NewSource(9))
	pts := UniformPoints(rng, n, UnitSquare())
	eng, err := NewEngine(pts, UnitSquare(), WithStore(StoreConfig{
		PageSize:     4096,
		PoolPages:    256,
		PayloadBytes: 256,
	}))
	if err != nil {
		b.Fatal(err)
	}
	areas := benchAreas(9, 0.01, 64)
	for _, m := range []Method{Traditional, VoronoiBFS} {
		b.Run(m.String(), func(b *testing.B) {
			var reads0 int
			reads0, _, _ = eng.IOStats()
			runAreaQueries(b, eng, m, areas)
			reads1, _, _ := eng.IOStats()
			b.ReportMetric(float64(reads1-reads0)/float64(b.N), "pagereads/op")
		})
	}
}

// BenchmarkAblationRectangleQuery runs axis-aligned rectangular query
// areas — the traditional method's best case, per the paper's introduction
// ("when the shape of the query area is a rectangle, this method has very
// high efficiency"). Compare with BenchmarkTable2_QuerySize to see the
// irregular-polygon gap appear.
func BenchmarkAblationRectangleQuery(b *testing.B) {
	const n = 100_000
	rng := rand.New(rand.NewSource(10))
	areas := make([]Polygon, 64)
	for i := range areas {
		areas[i] = RectangleQueryPolygon(rng, 0.01, 1, UnitSquare())
	}
	for _, m := range []Method{Traditional, VoronoiBFS} {
		b.Run(m.String(), func(b *testing.B) {
			runAreaQueries(b, benchEngine(b, n), m, areas)
		})
	}
}

// BenchmarkQueryBatchParallel measures batch throughput of the parallel
// executor on the paper's 100k uniform workload at pool sizes 1, 2, 4 and
// 8. Each iteration runs one full 64-query batch, so the ns/op ratio
// between p=1 and p=4 is the parallel speedup (≈ core count on unloaded
// multi-core hardware; the queries/s metric is the absolute throughput).
func BenchmarkQueryBatchParallel(b *testing.B) {
	const n = 100_000
	rng := rand.New(rand.NewSource(11))
	pts := UniformPoints(rng, n, UnitSquare())
	areas := benchAreas(11, 0.01, 64)
	for _, p := range []int{1, 2, 4, 8} {
		eng, err := NewEngine(pts, UnitSquare(), WithParallelism(p))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			queries := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := queryBatch(eng, VoronoiBFS, areas); err != nil {
					b.Fatal(err)
				}
				queries += len(areas)
			}
			b.StopTimer()
			b.ReportMetric(float64(queries)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkQueryAll measures the new batch entry point — the one surface
// QueryBatch/QueryRegions now wrap — on the paper's 100k uniform workload,
// keeping the unified API's batch path in the perf trajectory next to
// BenchmarkQueryBatchParallel above.
func BenchmarkQueryAll(b *testing.B) {
	const n = 100_000
	rng := rand.New(rand.NewSource(11))
	pts := UniformPoints(rng, n, UnitSquare())
	areas := benchAreas(11, 0.01, 64)
	regions := make([]Region, len(areas))
	for i, a := range areas {
		regions[i] = PolygonRegion(a)
	}
	ctx := context.Background()
	for _, p := range []int{1, 4} {
		eng, err := NewEngine(pts, UnitSquare(), WithParallelism(p))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			queries := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.QueryAll(ctx, regions); err != nil {
					b.Fatal(err)
				}
				queries += len(regions)
			}
			b.StopTimer()
			b.ReportMetric(float64(queries)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkQueryAllStore is BenchmarkQueryAll against a store-backed
// engine with a pool holding ~3% of the pages — the IO-accounted regime
// where batch workers used to serialize their page loads on one pool
// mutex. Swept at 1 buffer-pool lock shard (that old layout) versus the
// default count; the spread at p>1 on multi-core hardware is the
// contention the sharded pool removes.
func BenchmarkQueryAllStore(b *testing.B) {
	const n = 100_000
	rng := rand.New(rand.NewSource(15))
	pts := UniformPoints(rng, n, UnitSquare())
	areas := benchAreas(15, 0.01, 64)
	regions := make([]Region, len(areas))
	for i, a := range areas {
		regions[i] = PolygonRegion(a)
	}
	ctx := context.Background()
	store := StoreConfig{PageSize: 4096, PoolPages: 256, PayloadBytes: 256}
	for _, poolShards := range []int{1, 0} {
		label := "poolshards=default"
		if poolShards == 1 {
			label = "poolshards=1"
		}
		for _, p := range []int{1, 4} {
			eng, err := NewEngine(pts, UnitSquare(), WithStore(store),
				WithBufferPoolShards(poolShards), WithParallelism(p))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/p=%d", label, p), func(b *testing.B) {
				queries := 0
				reads0, _, _ := eng.IOStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.QueryAll(ctx, regions); err != nil {
						b.Fatal(err)
					}
					queries += len(regions)
				}
				b.StopTimer()
				reads1, _, _ := eng.IOStats()
				b.ReportMetric(float64(queries)/b.Elapsed().Seconds(), "queries/s")
				b.ReportMetric(float64(reads1-reads0)/float64(b.N), "pagereads/op")
			})
		}
	}
}

// BenchmarkAblationPolygonComplexity sweeps the query polygon vertex count
// (the paper fixes 10), showing how boundary complexity affects both
// methods.
func BenchmarkAblationPolygonComplexity(b *testing.B) {
	const n = 100_000
	for _, k := range []int{4, 10, 25, 50} {
		rng := rand.New(rand.NewSource(int64(k)))
		areas := make([]Polygon, 64)
		for i := range areas {
			areas[i] = RandomQueryPolygon(rng, k, 0.01, UnitSquare())
		}
		for _, m := range []Method{Traditional, VoronoiBFS} {
			b.Run(fmt.Sprintf("k=%d/%v", k, m), func(b *testing.B) {
				runAreaQueries(b, benchEngine(b, n), m, areas)
			})
		}
	}
}

// BenchmarkShardedQuery measures batch-query throughput of the sharded
// engine against an unsharded baseline on a store-backed dataset (the
// regime sharding targets: every shard owns a private record store and
// buffer pool, so aggregate cache capacity and lock independence grow
// with the shard count, and on multi-core hardware the scatter adds
// shard-level parallelism on top of batch parallelism). Each iteration
// runs one full 64-query batch; compare ns/op across the shards=N
// sub-benchmarks and read queries/s for absolute throughput.
func BenchmarkShardedQuery(b *testing.B) {
	const n = 100_000
	rng := rand.New(rand.NewSource(12))
	pts := UniformPoints(rng, n, UnitSquare())
	areas := benchAreas(12, 0.01, 64)
	store := StoreConfig{PageSize: 4096, PoolPages: 1024, PayloadBytes: 256}

	single, err := NewEngine(pts, UnitSquare(), WithStore(store))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("single", func(b *testing.B) {
		benchShardedBatch(b, func(m Method, areas []Polygon) ([][]int64, Stats, error) {
			return queryBatch(single, m, areas)
		}, single.IOStats, areas)
	})

	for _, shards := range []int{1, 2, 4, 8} {
		eng, err := NewShardedEngine(pts, UnitSquare(), WithShards(shards), WithStore(store))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchShardedBatch(b, func(m Method, as []Polygon) ([][]int64, Stats, error) {
				return queryBatch(eng, m, as)
			}, eng.IOStats, areas)
		})
	}
}

// BenchmarkDynamicMixed measures the epoch-snapshot dynamic engine under a
// mixed workload: one writer goroutine streams inserts for the whole
// measurement while the parallel benchmark goroutines run area queries,
// each query pinning the then-current epoch. ns/op is per-query latency
// including the amortized snapshot publishes the interleaved inserts
// force; inserts/s reports the writer throughput sustained alongside.
func BenchmarkDynamicMixed(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	eng := NewDynamicEngine(UnitSquare())
	for i := 0; i < 20_000; i++ {
		if _, _, err := eng.Insert(Pt(rng.Float64(), rng.Float64())); err != nil {
			b.Fatal(err)
		}
	}
	areas := benchAreas(13, 0.01, 64)

	stop := make(chan struct{})
	var inserts atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(14))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := eng.Insert(Pt(wrng.Float64(), wrng.Float64())); err != nil {
				b.Error(err)
				return
			}
			inserts.Add(1)
		}
	}()

	var qi atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(qi.Add(1))
			if _, _, err := queryWith(eng, VoronoiBFS, areas[i%len(areas)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	b.ReportMetric(float64(inserts.Load())/b.Elapsed().Seconds(), "inserts/s")
}

func benchShardedBatch(b *testing.B, batch func(Method, []Polygon) ([][]int64, Stats, error),
	ioStats func() (int, int, bool), areas []Polygon) {
	b.Helper()
	queries := 0
	reads0, _, _ := ioStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := batch(VoronoiBFS, areas); err != nil {
			b.Fatal(err)
		}
		queries += len(areas)
	}
	b.StopTimer()
	reads1, _, _ := ioStats()
	b.ReportMetric(float64(queries)/b.Elapsed().Seconds(), "queries/s")
	b.ReportMetric(float64(reads1-reads0)/float64(b.N), "pagereads/op")
}

// BenchmarkHotRegionCache measures the result cache under zipfian
// hot-region traffic (s=1.1 over a 64-region pool): the cached engine
// replays a skewed stream that repeatedly revisits hot regions, so most
// queries are served from the cache. Compare queries/s against the
// uncached sub-benchmark; hits% reports the cache hit rate.
func BenchmarkHotRegionCache(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	pts := UniformPoints(rng, 50_000, UnitSquare())
	areas := benchAreas(16, 0.01, 64)
	regions := make([]Region, len(areas))
	for i, pg := range areas {
		regions[i] = PolygonRegion(pg)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(17)), 1.1, 1, uint64(len(regions)-1))
	stream := make([]int, 4096)
	for i := range stream {
		stream[i] = int(zipf.Uint64())
	}
	ctx := context.Background()
	buf := make([]int64, 0, 4096)

	run := func(b *testing.B, eng *Engine) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(ctx, regions[stream[i%len(stream)]], Reuse(buf)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	}

	b.Run("uncached", func(b *testing.B) {
		eng, err := NewEngine(pts, UnitSquare())
		if err != nil {
			b.Fatal(err)
		}
		run(b, eng)
	})
	b.Run("cached", func(b *testing.B) {
		rc := NewResultCache(256)
		eng, err := NewEngine(pts, UnitSquare(), WithResultCache(rc))
		if err != nil {
			b.Fatal(err)
		}
		run(b, eng)
		b.ReportMetric(rc.Stats().HitRate()*100, "hits%")
	})
}

// BenchmarkMetricsOverhead measures the cost of the observability layer on
// the query hot path: the same query stream over one bare engine (nil
// registry — the disabled path must be a pointer comparison) and one built
// WithMetrics. The acceptance bar is <= 2% queries/s regression for the
// bare engine versus a build without the layer, and single-digit percent
// for the instrumented one.
func BenchmarkMetricsOverhead(b *testing.B) {
	rng := rand.New(rand.NewSource(211))
	pts := UniformPoints(rng, 50_000, UnitSquare())
	areas := benchAreas(212, 0.01, 64)
	regions := make([]Region, len(areas))
	for i, pg := range areas {
		regions[i] = PolygonRegion(pg)
	}
	ctx := context.Background()
	buf := make([]int64, 0, 4096)

	run := func(b *testing.B, eng *Engine) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(ctx, regions[i%len(regions)], Reuse(buf)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	}

	b.Run("nil-registry", func(b *testing.B) {
		eng, err := NewEngine(pts, UnitSquare())
		if err != nil {
			b.Fatal(err)
		}
		run(b, eng)
	})
	b.Run("instrumented", func(b *testing.B) {
		reg := NewMetricsRegistry()
		eng, err := NewEngine(pts, UnitSquare(), WithMetrics(reg))
		if err != nil {
			b.Fatal(err)
		}
		run(b, eng)
	})
	b.Run("instrumented-traced", func(b *testing.B) {
		reg := NewMetricsRegistry()
		eng, err := NewEngine(pts, UnitSquare(), WithMetrics(reg))
		if err != nil {
			b.Fatal(err)
		}
		var tr QueryTrace
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(ctx, regions[i%len(regions)], Reuse(buf), WithTraceInto(&tr)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
}
