package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/workload"
)

// shippedEngine is one seed-index × data-layer combination that ships.
type shippedEngine struct {
	name string
	eng  *Engine
	// idOffset maps engine ids to indexes of the point slice: the dynamic
	// engine numbers its user sites after the fence sites.
	idOffset int64
}

// pointIDs returns the query result as sorted indexes of the point slice.
func (se shippedEngine) pointIDs(ids []int64) []int64 {
	out := slices.Sorted(slices.Values(ids))
	for i := range out {
		out[i] -= se.idOffset
	}
	return out
}

// shippedEngines builds both combinations over pts: "rtree", the STR
// bulk-loaded R-tree over MemoryData (the static engine), and "dynamic", a
// snapshot of the dynamic engine grown by inserting the same points, whose
// R-tree its first Traditional query packs.
func shippedEngines(t *testing.T, pts []geom.Point) []shippedEngine {
	t.Helper()
	data, err := NewMemoryData(pts, unitBounds())
	if err != nil {
		t.Fatal(err)
	}
	de := NewDynamicEngine(unitBounds())
	for i, p := range pts {
		if id, inserted, err := de.Insert(p); err != nil || !inserted || id != int64(i+delaunay.FirstSiteID) {
			t.Fatalf("insert %d: id %d inserted %v err %v", i, id, inserted, err)
		}
	}
	return []shippedEngine{
		{"rtree", NewEngine(NewRTreeIndex(pts, 16), data), 0},
		{"dynamic", de.Snapshot(), delaunay.FirstSiteID},
	}
}

// TestCrossMethodConformance is the repository's conformance matrix: for
// seeded random workloads (uniform and clustered) and both seed indexes
// that ship, the paper's Voronoi method (both expansion rules), the
// traditional filter-and-refine baseline and the brute-force oracle must
// return identical point sets on the same query areas. It pins the core
// correctness claim the whole evaluation rests on — all methods answer the
// same question — across every index/data-distribution combination the
// public API can build.
func TestCrossMethodConformance(t *testing.T) {
	const n = 3000

	workloads := []struct {
		name string
		gen  func(rng *rand.Rand) []geom.Point
	}{
		{"uniform", func(rng *rand.Rand) []geom.Point {
			return workload.UniformPoints(rng, n, unitBounds())
		}},
		{"clustered", func(rng *rand.Rand) []geom.Point {
			return workload.ClusteredPoints(rng, n, 8, 0.03, unitBounds())
		}},
	}
	methods := []Method{VoronoiBFS, VoronoiBFSStrict, Traditional}

	for wi, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(100 + int64(wi)))
			pts := wl.gen(rng)
			engines := shippedEngines(t, pts)
			// One query mix per workload, shared by every index so any
			// disagreement points at the index or method, not the areas.
			type regionCase struct {
				name   string
				region Region
			}
			var queries []regionCase
			for i, qs := range []float64{0.005, 0.01, 0.04, 0.16} {
				pg := workload.RandomPolygon(rng, workload.PolygonConfig{
					Vertices:  10,
					QuerySize: qs,
				}, unitBounds())
				queries = append(queries, regionCase{fmt.Sprintf("polygon%d", i), PolygonRegion(pg)})
			}
			queries = append(queries, regionCase{"circle", CircleRegion(geom.NewCircle(
				geom.Pt(0.3+0.4*rng.Float64(), 0.3+0.4*rng.Float64()), 0.1))})

			// The oracle is index-independent.
			oracle := make([][]int64, len(queries))
			for qi, q := range queries {
				ids, _, err := query(engines[0].eng, BruteForce, q.region)
				if err != nil {
					t.Fatalf("oracle %s: %v", q.name, err)
				}
				oracle[qi] = engines[0].pointIDs(ids)
			}

			for _, se := range engines {
				t.Run(se.name, func(t *testing.T) {
					for qi, q := range queries {
						for _, m := range methods {
							got, _, err := query(se.eng, m, q.region)
							if err != nil {
								t.Fatalf("%s/%v: %v", q.name, m, err)
							}
							if !slices.Equal(se.pointIDs(got), oracle[qi]) {
								t.Errorf("%s/%v: %d ids, oracle %d",
									q.name, m, len(got), len(oracle[qi]))
							}
						}
					}
				})
			}
		})
	}
}
