package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/workload"
)

// TestStrictRuleIsAlwaysComplete stresses the expansion rules on sparse
// data with very spiky polygons — the adversarial regime for the published
// segment-expansion heuristic of Algorithm 1 (see README.md, "Expansion
// rules"). The strict cell-intersection rule must match the brute-force
// oracle on every trial; the published rule is allowed rare misses here
// (they are counted and logged, and must not occur in the paper's own dense
// regime, which TestVoronoiReducesCandidates and the bench harness cover).
func TestStrictRuleIsAlwaysComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pts := workload.UniformPoints(rng, 300, unitBounds())
	data, err := NewMemoryData(pts, unitBounds())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(NewRTreeIndex(pts, 16), data)

	publishedMisses, trials := 0, 400
	for trial := 0; trial < trials; trial++ {
		area := workload.RandomPolygon(rng, workload.PolygonConfig{
			Vertices:       10,
			QuerySize:      0.01,
			MinRadiusRatio: 0.05, // extremely spiky: thin slivers likely
		}, unitBounds())

		oracle, _, err := query(eng, BruteForce, PolygonRegion(area))
		if err != nil {
			t.Fatal(err)
		}
		strict, _, err := query(eng, VoronoiBFSStrict, PolygonRegion(area))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(slices.Sorted(slices.Values(strict)), slices.Sorted(slices.Values(oracle))) {
			t.Fatalf("trial %d: strict rule missed results (%d vs oracle %d)",
				trial, len(strict), len(oracle))
		}
		published, _, err := query(eng, VoronoiBFS, PolygonRegion(area))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(slices.Sorted(slices.Values(published)), slices.Sorted(slices.Values(oracle))) {
			publishedMisses++
		}
	}
	t.Logf("published rule diverged on %d/%d adversarial trials (strict: 0)",
		publishedMisses, trials)
	// Sanity: the published heuristic must still be overwhelmingly right
	// even here, or the reproduction has a bug rather than the known gap.
	if publishedMisses > trials/10 {
		t.Errorf("published rule diverged on %d/%d trials; too many for the known heuristic gap",
			publishedMisses, trials)
	}
}

// TestSeedOutsideAreaStillExpands pins the regression that motivated the
// centroid-first interior anchor: a query area whose anchor is near a thin
// spike used to strand the BFS at a seed outside the area.
func TestSeedOutsideAreaStillExpands(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := workload.UniformPoints(rng, 3000, unitBounds())
	data, err := NewMemoryData(pts, unitBounds())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(NewRTreeIndex(pts, 16), data)
	// Re-create the harness workload that exposed the miss: spiky 10-gons
	// at 4% query size over 3000 points.
	misses := 0
	for trial := 0; trial < 60; trial++ {
		area := workload.RandomPolygon(rng, workload.PolygonConfig{
			Vertices:  10,
			QuerySize: 0.04,
		}, unitBounds())
		oracle, _, err := query(eng, BruteForce, PolygonRegion(area))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := query(eng, VoronoiBFS, PolygonRegion(area))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 && len(oracle) > 0 {
			misses++
		}
	}
	if misses > 0 {
		t.Errorf("BFS stranded at the seed on %d/60 trials; anchor selection regressed", misses)
	}
}

// circleSiteSets are the site sets TestStrictCirclesAreExact runs on: a
// dyadic and a non-dyadic lattice, concentric cocircular rings, collinear
// rows (one of them alone) and sparse random sets.
func circleSiteSets() map[string][]geom.Point {
	lattice := func(k int) []geom.Point {
		var pts []geom.Point
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				pts = append(pts, geom.Pt((float64(i)+0.5)/float64(k), (float64(j)+0.5)/float64(k)))
			}
		}
		return pts
	}
	rings := []geom.Point{geom.Pt(0.5, 0.5)}
	for k, r := range []float64{0.1, 0.2, 0.3, 0.4} {
		n := 8 * (k + 1)
		for i := 0; i < n; i++ {
			a := 2 * math.Pi * float64(i) / float64(n)
			rings = append(rings, geom.Pt(0.5+r*math.Cos(a), 0.5+r*math.Sin(a)))
		}
	}
	var row, rows []geom.Point
	for i := 0; i <= 16; i++ {
		row = append(row, geom.Pt(float64(i)/17, 0.5))
		for _, y := range []float64{0.2, 0.5, 0.8} {
			rows = append(rows, geom.Pt(float64(i)/17, y))
		}
	}
	rng := rand.New(rand.NewSource(17))
	return map[string][]geom.Point{
		"lattice 8x8":   lattice(8),
		"lattice 12x12": lattice(12),
		"rings":         rings,
		"row":           row,
		"rows":          append(rows, geom.Pt(0.5, 0.1), geom.Pt(0.5, 0.9), geom.Pt(0.1, 0.9)),
		"sparse 12":     workload.UniformPoints(rng, 12, unitBounds()),
		"sparse 40":     workload.UniformPoints(rng, 40, unitBounds()),
	}
}

// TestStrictCirclesAreExact holds the strict rule on a disk, which is the
// segment rule, to a containment scan: on each site set, and on a random
// half of it (what a shard holds), for circles centred on sites and on
// midpoints between two sites, each with its radius the distance to a site —
// so sites lie exactly on the circle, where rounding decides.
func TestStrictCirclesAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	queries := 0
	for name, all := range circleSiteSets() {
		half := slices.Clone(all)
		rng.Shuffle(len(half), func(i, j int) { half[i], half[j] = half[j], half[i] })
		half = half[:(len(half)+1)/2]
		for _, pts := range [][]geom.Point{all, half} {
			data, err := NewMemoryData(pts, unitBounds())
			if err != nil {
				t.Fatal(err)
			}
			eng := NewEngine(NewRTreeIndex(pts, 16), data)
			var centers []geom.Point
			for i, p := range pts {
				q := pts[rng.Intn(len(pts))]
				centers = append(centers, p, geom.Pt((p.X+q.X)/2, (p.Y+q.Y)/2))
				if i+1 < len(pts) {
					q = pts[i+1]
					centers = append(centers, geom.Pt((p.X+q.X)/2, (p.Y+q.Y)/2))
				}
			}
			for _, c := range centers {
				for k := 0; k < 8; k++ {
					on := pts[rng.Intn(len(pts))]
					region := CircleRegion(geom.NewCircle(c, math.Sqrt(c.Dist2(on))))
					var want []int64
					for id, p := range pts {
						if region.ContainsPoint(p) {
							want = append(want, int64(id))
						}
					}
					got, _, err := query(eng, VoronoiBFSStrict, region)
					if err != nil {
						t.Fatal(err)
					}
					if got = slices.Sorted(slices.Values(got)); !slices.Equal(got, want) {
						t.Fatalf("%s, %d sites: circle %v returned %v, the scan %v", name, len(pts), region.Bounds(), got, want)
					}
					queries++
				}
			}
		}
	}
	t.Logf("%d strict circles, all exact", queries)
}
