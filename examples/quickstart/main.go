// Quickstart: build an engine over random points, run one area query with
// both methods, and print what each did.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro"
)

func main() {
	// 100k points uniform in the unit square — the paper's smallest
	// dataset.
	rng := rand.New(rand.NewSource(1))
	points := vaq.UniformPoints(rng, 100_000, vaq.UnitSquare())

	// The engine builds the Voronoi topology (via Delaunay triangulation)
	// and an STR-packed R-tree; both query methods share them.
	eng, err := vaq.NewEngine(points, vaq.UnitSquare())
	if err != nil {
		log.Fatal(err)
	}

	// A concave pentagon as the query area.
	area := vaq.MustPolygon([]vaq.Point{
		vaq.Pt(0.20, 0.20),
		vaq.Pt(0.60, 0.25),
		vaq.Pt(0.55, 0.60),
		vaq.Pt(0.40, 0.35), // reflex vertex: the polygon is concave
		vaq.Pt(0.25, 0.55),
	})
	fmt.Printf("query area: %.4f of the universe (MBR %.4f — the gap is the paper's point)\n",
		area.Area(), area.Bounds().Area())

	// One Querier surface for everything: per-query options select the
	// method, WithStatsInto exposes the work performed.
	ctx := context.Background()
	region := vaq.PolygonRegion(area)
	// Only Traditional reads an R-tree, and an engine packs it on its first
	// Traditional query; pay that once here so the timings compare queries.
	if _, err := vaq.Count(ctx, eng, region, vaq.UsingMethod(vaq.Traditional)); err != nil {
		log.Fatal(err)
	}
	for _, m := range []vaq.Method{vaq.Traditional, vaq.VoronoiBFS} {
		var st vaq.Stats
		start := time.Now()
		ids, err := eng.Query(ctx, region, vaq.UsingMethod(m), vaq.WithStatsInto(&st))
		elapsed := time.Since(start)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s found %5d points | candidates validated: %5d | wasted validations: %4d | %v\n",
			m, len(ids), st.Candidates, st.RedundantValidations, elapsed)
	}

	// The default Query uses the paper's Voronoi method.
	ids, err := eng.Query(ctx, region)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first matches: %v ...\n", ids[:min(5, len(ids))])
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
