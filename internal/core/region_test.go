package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestCircleQueriesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	eng, pts := newUniformEngine(t, rng, 5000)
	for trial := 0; trial < 50; trial++ {
		c := geom.NewCircle(
			geom.Pt(rng.Float64(), rng.Float64()),
			0.02+rng.Float64()*0.15,
		)
		region := CircleRegion(c)
		want := make([]int64, 0)
		for i, p := range pts {
			if c.ContainsPoint(p) {
				want = append(want, int64(i))
			}
		}
		for _, m := range []Method{Traditional, VoronoiBFS, VoronoiBFSStrict, BruteForce} {
			got, st, err := query(eng, m, region)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, m, err)
			}
			if !equalIDs(sortedIDs(got), want) {
				t.Fatalf("trial %d %v: %d results, oracle %d", trial, m, len(got), len(want))
			}
			if st.ResultSize != len(got) {
				t.Fatalf("stats mismatch")
			}
		}
	}
}

func TestCircleVoronoiSavesCandidates(t *testing.T) {
	// A disk fills ~78.5% of its MBR, so the traditional filter wastes
	// ~21.5% plus index slack; the Voronoi method's shell should still be
	// smaller for reasonable radii.
	rng := rand.New(rand.NewSource(2))
	eng, _ := newUniformEngine(t, rng, 20000)
	var trad, vor int
	for trial := 0; trial < 20; trial++ {
		region := CircleRegion(geom.NewCircle(
			geom.Pt(0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64()), 0.08))
		_, st1, err := query(eng, Traditional, region)
		if err != nil {
			t.Fatal(err)
		}
		_, st2, err := query(eng, VoronoiBFS, region)
		if err != nil {
			t.Fatal(err)
		}
		trad += st1.Candidates
		vor += st2.Candidates
	}
	if vor >= trad {
		t.Errorf("circle queries: voronoi candidates %d >= traditional %d", vor, trad)
	}
	t.Logf("circle candidates: traditional=%d voronoi=%d (%.1f%% saved)",
		trad, vor, 100*(1-float64(vor)/float64(trad)))
}

func TestRegionIntersectsRingGeneric(t *testing.T) {
	// The strict rule's cell test on a custom region ends in this helper;
	// unit-test it too.
	c := CircleRegion(geom.NewCircle(geom.Pt(0.5, 0.5), 0.1))
	inside := geom.Ring{geom.Pt(0.48, 0.48), geom.Pt(0.52, 0.48), geom.Pt(0.5, 0.52)}
	if !regionIntersectsRing(c, inside) {
		t.Error("ring inside circle should intersect")
	}
	far := geom.Ring{geom.Pt(0.9, 0.9), geom.Pt(0.95, 0.9), geom.Pt(0.92, 0.95)}
	if regionIntersectsRing(c, far) {
		t.Error("distant ring should not intersect")
	}
	surrounding := geom.Ring{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	if !regionIntersectsRing(c, surrounding) {
		t.Error("ring containing the whole circle should intersect")
	}
	if regionIntersectsRing(c, nil) {
		t.Error("empty ring should not intersect")
	}
}

func BenchmarkCircleQueryVoronoi(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	eng, _ := newUniformEngine(b, rng, 100_000)
	regions := make([]Region, 64)
	for i := range regions {
		regions[i] = CircleRegion(geom.NewCircle(
			geom.Pt(0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64()), 0.056)) // ~1% of universe
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := query(eng, VoronoiBFS, regions[i%len(regions)]); err != nil {
			b.Fatal(err)
		}
	}
}

func TestQueryOnEmptyEngineIsErrNoData(t *testing.T) {
	eng := NewEngine(NewRTreeIndex(nil, 16), new(MemoryData)) // a layer with no site
	area := geom.MustPolygon([]geom.Point{
		geom.Pt(0.1, 0.1), geom.Pt(0.5, 0.1), geom.Pt(0.3, 0.5),
	})
	if _, _, err := query(eng, VoronoiBFS, PolygonRegion(area)); err != ErrNoData {
		t.Errorf("Query on empty engine: err = %v, want ErrNoData", err)
	}
}
