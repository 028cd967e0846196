// Logistics models an IO-bound deployment, the regime the paper targets:
// delivery stops stored in a paged object store behind a small buffer
// pool, queried zone by zone. The example runs every zone with both
// methods and reports the page IO each one cost.
//
//	go run ./examples/logistics
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
	rng := rand.New(rand.NewSource(7))

	// 200k delivery stops; records carry a 256-byte attribute payload
	// (address, time window, ...) and live in 4 KiB pages behind a buffer
	// pool holding ~2% of the file.
	stops := vaq.UniformPoints(rng, 200_000, vaq.UnitSquare())
	eng, err := vaq.NewEngine(stops, vaq.UnitSquare(), vaq.WithStore(vaq.StoreConfig{
		PageSize:     4096,
		PoolPages:    512,
		PayloadBytes: 256,
	}))
	if err != nil {
		log.Fatal(err)
	}

	// Eight random concave delivery zones, each ~2% of the service area.
	zones := make([]vaq.Region, 8)
	for i := range zones {
		zones[i] = vaq.PolygonRegion(vaq.RandomQueryPolygon(rng, 10, 0.02, vaq.UnitSquare()))
	}
	ctx := context.Background()

	fmt.Println("zone | method      | stops | candidates | page reads | time")
	fmt.Println("-----+-------------+-------+------------+------------+----------")
	var totalTrad, totalVor int
	for zi, zone := range zones {
		for _, m := range []vaq.Method{vaq.Traditional, vaq.VoronoiBFS} {
			eng.ResetIOStats()
			var st vaq.Stats
			start := time.Now()
			ids, err := eng.Query(ctx, zone, vaq.UsingMethod(m), vaq.WithStatsInto(&st))
			elapsed := time.Since(start)
			if err != nil {
				log.Fatal(err)
			}
			reads, _, _ := eng.IOStats()
			fmt.Printf("%4d | %-11s | %5d | %10d | %10d | %v\n",
				zi, m, len(ids), st.Candidates, reads, elapsed)
			if m == vaq.Traditional {
				totalTrad += reads
			} else {
				totalVor += reads
			}
		}
	}
	fmt.Printf("\ntotal page reads: traditional=%d voronoi=%d (%.1f%% saved)\n",
		totalTrad, totalVor, 100*(1-float64(totalVor)/float64(totalTrad)))
}
