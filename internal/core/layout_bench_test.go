package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/workload"
)

// Layout ablation: the effect of spatially clustering (Hilbert-sorting)
// the dataset on both query methods. Clustering mirrors a production
// store's page layout and is especially favorable to the Voronoi BFS,
// whose expansion pattern is spatially local.

func benchQueries(b *testing.B, eng *Engine, m Method, areas []geom.Polygon) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := query(eng, m, PolygonRegion(areas[i%len(areas)])); err != nil {
			b.Fatal(err)
		}
	}
}

func layoutBenchSetup(b *testing.B, hilbertSorted bool) (*Engine, []geom.Polygon) {
	b.Helper()
	rng := rand.New(rand.NewSource(13))
	pts := workload.UniformPoints(rng, 100_000, unitBounds())
	if hilbertSorted {
		workload.HilbertSort(pts, unitBounds())
	}
	data, err := NewMemoryData(pts, unitBounds())
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(NewRTreeIndex(pts, 16), data)
	areas := make([]geom.Polygon, 64)
	for i := range areas {
		areas[i] = workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.01}, unitBounds())
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
