// Ablation benchmarks: variations the paper does not tabulate (expansion
// rule, store-backed IO, rectangular areas, polygon complexity) and the
// cost of the observability layer, each on the paper's workload with the
// candidate statistics reported as custom metrics (candidates/op,
// redundant/op).
//
// The paper's own tables and figures are produced by cmd/areabench, and
// performance is measured by the repository benchmark (`go run -C
// benchmark .`); nothing here duplicates either.
//
// Datasets are cached per size across benchmarks to keep setup cost
// amortized; use -benchtime to control measurement length.
package vaq

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

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

// prepared prepares each area once, outside any timed loop, as a caller
// that queries a region repeatedly does.
func prepared(areas []Polygon) func(i int) Region {
	regions := make([]Region, len(areas))
	for i, area := range areas {
		regions[i] = PolygonRegion(area)
	}
	return func(i int) Region { return regions[i%len(regions)] }
}

// runAreaQueries measures m over the regions region(i) returns for the
// i-th query and reports candidate metrics.
func runAreaQueries(b *testing.B, eng *Engine, m Method, region func(i int) Region) {
	b.Helper()
	var candidates, redundant, results int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st Stats
		_, err := eng.Query(context.Background(), region(i), UsingMethod(m), WithStatsInto(&st))
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

// BenchmarkAblationExpansionRule compares the published segment-expansion
// rule with the strict cell-intersection rule (README.md, "Expansion
// rules").
func BenchmarkAblationExpansionRule(b *testing.B) {
	const n = 100_000
	areas := prepared(benchAreas(7, 0.01, 64))
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
	areas := prepared(benchAreas(9, 0.01, 64))
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
// high efficiency"). Compare with `areabench -exp table2` to see the
// irregular-polygon gap appear.
func BenchmarkAblationRectangleQuery(b *testing.B) {
	const n = 100_000
	rng := rand.New(rand.NewSource(10))
	areas := make([]Polygon, 64)
	for i := range areas {
		areas[i] = RectangleQueryPolygon(rng, 0.01, 1, UnitSquare())
	}
	regions := prepared(areas)
	for _, m := range []Method{Traditional, VoronoiBFS} {
		b.Run(m.String(), func(b *testing.B) {
			runAreaQueries(b, benchEngine(b, n), m, regions)
		})
	}
}

// BenchmarkAblationPolygonComplexity sweeps the query polygon vertex count
// (the paper fixes 10), showing how boundary complexity affects both
// methods. Each call prepares its region, so the timings are
// what a one-shot caller pays, the prepared polygon's lazy grid build
// included; k = 100 is there because that grid has a fixed size and falls
// back to the O(edges) loop on its boundary cells.
func BenchmarkAblationPolygonComplexity(b *testing.B) {
	const n = 100_000
	for _, k := range []int{4, 10, 25, 50, 100} {
		rng := rand.New(rand.NewSource(int64(k)))
		areas := make([]Polygon, 64)
		for i := range areas {
			areas[i] = RandomQueryPolygon(rng, k, 0.01, UnitSquare())
		}
		for _, m := range []Method{Traditional, VoronoiBFS} {
			b.Run(fmt.Sprintf("k=%d/%v", k, m), func(b *testing.B) {
				runAreaQueries(b, benchEngine(b, n), m, func(i int) Region { return PolygonRegion(areas[i%len(areas)]) })
			})
		}
	}
}

// BenchmarkMetricsOverhead reports the cost of the observability layer on
// the query hot path: the same query stream over one bare engine (nil
// registry — the disabled path is a pointer comparison), one built
// WithMetrics, and one that also traces every query WithTraceInto. It
// asserts nothing; read queries/s across the three. WithMetrics sits
// inside run-to-run noise on a 2-core host, WithTraceInto costs about a
// third (a clock pair per record load), which the repository benchmark
// measures under its noise controls as obs.trace_overhead_frac.
func BenchmarkMetricsOverhead(b *testing.B) {
	rng := rand.New(rand.NewSource(211))
	pts := UniformPoints(rng, 50_000, UnitSquare())
	region := prepared(benchAreas(212, 0.01, 64))
	ctx := context.Background()
	buf := make([]int64, 0, 4096)

	run := func(b *testing.B, eng *Engine) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(ctx, region(i), Reuse(buf)); err != nil {
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
			if _, err := eng.Query(ctx, region(i), Reuse(buf), WithTraceInto(&tr)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
}
