package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/workload"
)

// anchoredRegion overrides the seed anchor the Voronoi BFS starts from: the
// ablation for Algorithm 1's "arbitrary position in A".
type anchoredRegion struct {
	Region
	anchor geom.Point
}

func (a anchoredRegion) InteriorPoint() geom.Point { return a.anchor }

// TestRandomAnchorMatchesOracle runs Algorithm 1 with uniformly sampled
// seed anchors ("an arbitrary position in A", taken literally) and checks
// the result set is anchor-independent — the algorithm's claim.
func TestRandomAnchorMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	eng, _ := newUniformEngine(t, rng, 10000)
	for trial := 0; trial < 30; trial++ {
		area := workload.RandomPolygon(rng, workload.PolygonConfig{
			Vertices:  10,
			QuerySize: 0.02,
		}, unitBounds())
		oracle, _, err := query(eng, BruteForce, PolygonRegion(area))
		if err != nil {
			t.Fatal(err)
		}
		region := PolygonRegion(area)
		bounds := area.Bounds()
		for rep := 0; rep < 5; rep++ {
			// Uniform over the polygon by rejection from its MBR.
			var anchor geom.Point
			for {
				anchor = geom.Pt(bounds.MinX+rng.Float64()*bounds.Width(), bounds.MinY+rng.Float64()*bounds.Height())
				if area.ContainsPoint(anchor) {
					break
				}
			}
			anchored := anchoredRegion{Region: region, anchor: anchor}
			got, _, err := query(eng, VoronoiBFS, anchored)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(oracle))) {
				t.Fatalf("trial %d rep %d: random-anchor result %d, oracle %d",
					trial, rep, len(got), len(oracle))
			}
		}
	}
}
