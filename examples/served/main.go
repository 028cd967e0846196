// Served demonstrates the network serving layer: the dataset is split
// into contiguous chunks, each chunk served by its own in-process HTTP
// server (the same handler the areaserve binary mounts), and a
// RemoteEngine dialed over the group answers queries byte-identically to
// a local engine over the whole dataset — unary queries and NDJSON streams
// alike.
//
// It then kills one backend to show the failure policy: the query fails
// with the backend's error rather than answering from the survivors, and
// RemoteEngine.Dropped counts the failed backend call.
//
//	go run ./examples/served
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"slices"

	"repro"
	"repro/internal/serve"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	points := vaq.UniformPoints(rng, 60_000, vaq.UnitSquare())

	// One local engine over everything — the oracle.
	local, err := vaq.NewEngine(points, vaq.UnitSquare())
	if err != nil {
		log.Fatal(err)
	}

	// Three chunk servers, exactly what `areaserve -shard i/3` runs.
	cuts := []int{0, 20_000, 45_000, len(points)}
	var urls []string
	var servers []*http.Server
	for i := 0; i+1 < len(cuts); i++ {
		chunk := points[cuts[i]:cuts[i+1]]
		eng, err := vaq.NewEngine(chunk, vaq.UnitSquare())
		if err != nil {
			log.Fatal(err)
		}
		h := serve.NewHandler(eng, serve.Config{IDOffset: int64(cuts[i]), Flavor: "static"})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := &http.Server{Handler: h}
		go srv.Serve(ln)
		servers = append(servers, srv)
		urls = append(urls, "http://"+ln.Addr().String())
		fmt.Printf("chunk %d: %5d points (ids %d..%d) on %s\n",
			i, len(chunk), cuts[i], cuts[i+1]-1, ln.Addr())
	}

	// Dial the group: /v1/info tells the client each backend's id offset
	// and bounds, so addresses are all it needs.
	ctx := context.Background()
	remote, err := vaq.DialRemote(ctx, urls)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remote engine: %d backends, %d points\n\n", remote.NumBackends(), remote.Len())

	region := vaq.PolygonRegion(vaq.RandomQueryPolygon(rng, 12, 0.015, vaq.UnitSquare()))

	// Unary query: scattered to the backends whose bounds intersect the
	// region, merged back into ascending global id order.
	want, _ := local.Query(ctx, region)
	got, err := remote.Query(ctx, region)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %d matches, identical to local: %v\n", len(got), slices.Equal(got, want))

	// Streaming: frames arrive as NDJSON, positions bit-exact.
	streamed := 0
	err = remote.Each(ctx, region, func(id int64, p vaq.Point) bool {
		streamed++
		return true
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("each:  %d frames streamed\n\n", streamed)

	// A lost backend fails the query: a partial answer is never returned.
	servers[1].Close()
	if _, err := remote.Query(ctx, region); err != nil {
		fmt.Printf("after losing a backend: %v (%d failed backend calls)\n", err, remote.Dropped())
	}

	for _, srv := range servers {
		srv.Close()
	}
}
