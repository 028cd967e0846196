package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// Layout ablation: the effect of spatially clustering (Hilbert-sorting)
// the dataset on both query methods. Clustering mirrors a production
// store's page layout and is especially favorable to the Voronoi BFS,
// whose expansion pattern is spatially local.

func benchQueries(b *testing.B, eng *Engine, m Method, areas []Region) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := query(eng, m, areas[i%len(areas)]); err != nil {
			b.Fatal(err)
		}
	}
}

// layoutBenchSetup returns an engine over 100k uniform sites, in generator
// or Hilbert order, and 64 prepared ten-vertex polygons of 1 %.
func layoutBenchSetup(b *testing.B, hilbertSorted bool) (*Engine, []Region) {
	b.Helper()
	rng := rand.New(rand.NewSource(13))
	pts := workload.UniformPoints(rng, 100_000, unitBounds())
	if hilbertSorted {
		hilbertSort(pts, unitBounds())
	}
	data, err := NewMemoryData(pts, unitBounds())
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(NewRTreeIndex(pts, 16), data)
	areas := make([]Region, 64)
	for i := range areas {
		areas[i] = PolygonRegion(workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.01}, unitBounds()))
	}
	return eng, areas
}

func BenchmarkLayoutRandomOrderTraditional(b *testing.B) {
	eng, areas := layoutBenchSetup(b, false)
	benchQueries(b, eng, Traditional, areas)
}

func BenchmarkLayoutRandomOrderVoronoi(b *testing.B) {
	eng, areas := layoutBenchSetup(b, false)
	benchQueries(b, eng, VoronoiBFS, areas)
}

func BenchmarkLayoutHilbertTraditional(b *testing.B) {
	eng, areas := layoutBenchSetup(b, true)
	benchQueries(b, eng, Traditional, areas)
}

func BenchmarkLayoutHilbertVoronoi(b *testing.B) {
	eng, areas := layoutBenchSetup(b, true)
	benchQueries(b, eng, VoronoiBFS, areas)
}

// BenchmarkExpansionRule times Traditional, the published rule and the
// walked strict rule on 64 ten-vertex polygons of 1 % and of 0.01 % of the
// unit square, prepared outside the timed loop, over 100k uniform sites in
// Hilbert order, in memory and over a paged store behind a 256-page pool.
// It reports the validations (Stats.Candidates) and, on the store, the pages
// read per query. Run its rounds interleaved to compare the rules:
//
//	go test -c -o core.test ./internal/core
//	for i in $(seq 11); do ./core.test -test.run '^$' -test.bench ExpansionRule -test.benchtime 2000x; done
func BenchmarkExpansionRule(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	pts := workload.UniformPoints(rng, 100_000, unitBounds())
	hilbertSort(pts, unitBounds())
	mem, err := NewMemoryData(pts, unitBounds())
	if err != nil {
		b.Fatal(err)
	}
	store, err := NewStoreData(pts, unitBounds(), StoreConfig{PoolPages: 256})
	if err != nil {
		b.Fatal(err)
	}
	idx := NewRTreeIndex(pts, 16)
	for _, size := range []float64{0.01, 0.0001} {
		regions := make([]Region, 64)
		for i := range regions {
			regions[i] = PolygonRegion(workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: size}, unitBounds()))
		}
		for _, layer := range []struct {
			name string
			data *MemoryData
		}{{"memory", mem}, {"store", store}} {
			eng := NewEngine(idx, layer.data)
			for _, m := range []Method{Traditional, VoronoiBFS, VoronoiBFSStrict} {
				b.Run(fmt.Sprintf("%s/%g%%/%v", layer.name, 100*size, m), func(b *testing.B) {
					if st := layer.data.Store(); st != nil {
						st.DropCache() // each rule starts from a cold pool
					}
					layer.data.ResetIOStats()
					validations := 0
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						_, st, err := query(eng, m, regions[i%len(regions)])
						if err != nil {
							b.Fatal(err)
						}
						validations += st.Candidates
					}
					b.ReportMetric(float64(validations)/float64(b.N), "validations/op")
					if layer.data.Store() != nil {
						b.ReportMetric(float64(layer.data.IOStats().PageReads)/float64(b.N), "pagereads/op")
					}
				})
			}
		}
	}
}
