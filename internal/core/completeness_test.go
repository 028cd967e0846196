package core

import (
	"math/rand"
	"testing"

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
		if !equalIDs(sortedIDs(strict), sortedIDs(oracle)) {
			t.Fatalf("trial %d: strict rule missed results (%d vs oracle %d)",
				trial, len(strict), len(oracle))
		}
		published, _, err := query(eng, VoronoiBFS, PolygonRegion(area))
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(sortedIDs(published), sortedIDs(oracle)) {
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
