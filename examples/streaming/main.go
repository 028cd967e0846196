// Streaming demonstrates the dynamic engine's epoch-snapshot concurrency:
// sensor readings are ingested continuously by a writer goroutine while a
// concurrent monitor queries a concave watch region — no index or Voronoi
// rebuild ever happens (each point is inserted incrementally), and the
// monitor never blocks ingestion. Every monitor pass pins one epoch with
// Snapshot(), so its result count, statistics and point count describe one
// point set even though thousands of inserts land mid-pass.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"repro"
)

func main() {
	rng := rand.New(rand.NewSource(99))
	eng := vaq.NewDynamicEngine(vaq.UnitSquare())

	// A fixed concave watch region (~5% of the universe by MBR).
	watch := vaq.PolygonRegion(vaq.MustPolygon([]vaq.Point{
		vaq.Pt(0.40, 0.40), vaq.Pt(0.58, 0.44), vaq.Pt(0.62, 0.60),
		vaq.Pt(0.52, 0.52), vaq.Pt(0.46, 0.62), vaq.Pt(0.38, 0.56),
	}))
	ctx := context.Background()

	// Writer: 10 batches of 5000 readings drifting across the map,
	// ingested with no coordination with the monitor below beyond the
	// engine itself.
	const batches, perBatch = 10, 5000
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for batch := 1; batch <= batches; batch++ {
			cx := 0.3 + 0.05*float64(batch)
			for i := 0; i < perBatch; i++ {
				p := vaq.Pt(
					clamp(cx+rng.NormFloat64()*0.25),
					clamp(0.5+rng.NormFloat64()*0.25),
				)
				if _, _, err := eng.Insert(p); err != nil {
					log.Fatal(err)
				}
			}
		}
	}()

	fmt.Println("epoch (points) | in watch region | candidates | query time")
	fmt.Println("---------------+-----------------+------------+-----------")
	ingesting := true
	for ingesting {
		select {
		case <-done:
			ingesting = false // one final pass below on the completed stream
		case <-time.After(20 * time.Millisecond):
		}
		// Pin one epoch: the area query and its stats below describe
		// exactly this point set, while the writer keeps inserting
		// underneath.
		snap := eng.Snapshot()
		if snap.Len() == 0 {
			continue
		}
		var st vaq.Stats
		start := time.Now()
		ids, err := snap.Query(ctx, watch, vaq.WithStatsInto(&st))
		elapsed := time.Since(start)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%14d | %15d | %10d | %v\n",
			snap.Epoch(), len(ids), st.Candidates, elapsed)
	}
	wg.Wait()

	// Final consistency readout on the completed stream.
	final := eng.Snapshot()
	n, err := vaq.Count(ctx, final, watch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final: %d points ingested, %d inside the watch region\n", final.Len(), n)
}

func clamp(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
