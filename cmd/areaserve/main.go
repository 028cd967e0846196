// Command areaserve serves area queries over HTTP. It builds one of the
// library's engine flavors over a generated dataset (or one chunk of it,
// for multi-process sharding) and exposes the full Querier surface on a
// JSON API — see internal/serve for the wire protocol and vaq.DialRemote
// for the matching client engine.
//
// Serve the whole dataset:
//
//	areaserve -n 200000 -addr :8089
//
// Serve chunk 2 of 3 (the id offset, universe and data MBR advertised on
// /v1/info let DialRemote stitch the chunks back into one global engine and
// skip the chunks a region cannot touch):
//
//	areaserve -n 200000 -shard 2/3 -addr :8090
//
// Chunk i of k is run i of hilbert.Runs(points, unit square, k), the cut
// the sharded engine makes into k shards: a compact tile of the plane, the
// same in every process started with the same -seed and -n. Global ids
// under -shard are positions in that order (chunk i starts where chunk
// i-1 ended), not generator indexes; the points they name are the same
// set, so counts and coordinates agree with an unsharded server.
//
// Endpoints: POST /v1/query, /v1/queryall, /v1/each (NDJSON stream); GET
// /v1/info, /metrics (JSON, or ?format=prom). Clients propagate deadlines
// via the Vaq-Timeout-Ms header; -maxtimeout caps what they may ask for.
// SIGINT/SIGTERM drains in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/hilbert"
	"repro/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8089", "listen address")
		n          = flag.Int("n", 100000, "number of points in the generated dataset")
		seed       = flag.Int64("seed", 1, "random seed (same seed + n on every shard of a group)")
		clustered  = flag.Bool("clustered", false, "use clustered instead of uniform points")
		shardSpec  = flag.String("shard", "", `serve only chunk i of n, e.g. "2/3" (default: whole dataset)`)
		flavor     = flag.String("flavor", "static", "engine flavor: static, sharded or dynamic")
		shards     = flag.Int("shards", 0, "local shard count for -flavor sharded (0 = NumCPU)")
		maxTimeout = flag.Duration("maxtimeout", 30*time.Second, "cap on client-requested deadlines (0 = uncapped)")
		drain      = flag.Duration("drain", 10*time.Second, "grace period for in-flight requests on shutdown")
	)
	flag.Parse()
	if *n < 1 {
		fatalf("bad -n: %d, a point count is at least 1", *n)
	}

	rng := rand.New(rand.NewSource(*seed))
	var pts []vaq.Point
	if *clustered {
		pts = vaq.ClusteredPoints(rng, *n, 8, 0.04, vaq.UnitSquare())
	} else {
		pts = vaq.UniformPoints(rng, *n, vaq.UnitSquare())
	}

	start, chunk := 0, pts
	if *shardSpec != "" {
		i, k, err := parseShard(*shardSpec)
		if err != nil {
			fatalf("bad -shard: %v", err)
		}
		start, chunk = hilbertChunk(pts, i, k)
	}
	end := start + len(chunk)

	reg := vaq.NewMetricsRegistry()
	eng, err := buildEngine(*flavor, chunk, *shards, reg)
	if err != nil {
		fatalf("%v", err)
	}

	h := serve.NewHandler(eng, serve.Config{
		IDOffset:   int64(start),
		Flavor:     *flavor,
		Metrics:    reg,
		MaxTimeout: *maxTimeout,
	})
	srv := &http.Server{Addr: *addr, Handler: h}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "areaserve: %s engine, %d points (ids %d..%d) on %s\n",
		*flavor, len(chunk), start, end-1, *addr)

	select {
	case err := <-errc:
		fatalf("%v", err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills immediately
	fmt.Fprintln(os.Stderr, "areaserve: draining...")
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatalf("shutdown: %v", err)
	}
	fmt.Fprintln(os.Stderr, "areaserve: bye")
}

// buildEngine constructs the requested flavor over the chunk. Every
// flavor implements serve.Engine, so the handler is flavor-agnostic.
func buildEngine(flavor string, pts []vaq.Point, shards int, reg *vaq.MetricsRegistry) (serve.Engine, error) {
	opts := []vaq.Option{vaq.WithMetrics(reg)}
	switch flavor {
	case "static":
		return vaq.NewEngine(pts, vaq.UnitSquare(), opts...)
	case "sharded":
		if shards <= 0 {
			shards = runtime.NumCPU()
		}
		opts = append(opts, vaq.WithShards(shards))
		return vaq.NewShardedEngine(pts, vaq.UnitSquare(), opts...)
	case "dynamic":
		eng := vaq.NewDynamicEngine(vaq.UnitSquare(), opts...)
		for _, p := range pts {
			if _, _, err := eng.Insert(p); err != nil {
				return nil, err
			}
		}
		return eng, nil
	default:
		return nil, fmt.Errorf("unknown -flavor %q (want static, sharded or dynamic)", flavor)
	}
}

// hilbertChunk returns chunk i of k (1-based) of pts, run i of
// hilbert.Runs over the unit square, and the number of points in the
// chunks before it — the chunk's global id offset. The order depends on
// pts alone, so every process of a group computes the same cut.
func hilbertChunk(pts []vaq.Point, i, k int) (offset int, chunk []vaq.Point) {
	runs := hilbert.Runs(pts, vaq.UnitSquare(), k)
	if i > len(runs) || len(runs[i-1]) == 0 {
		fatalf("-shard %d/%d: only %d points to cut", i, k, len(pts))
	}
	for _, run := range runs[:i-1] {
		offset += len(run)
	}
	chunk = make([]vaq.Point, len(runs[i-1]))
	for j, idx := range runs[i-1] {
		chunk[j] = pts[idx]
	}
	return offset, chunk
}

func parseShard(s string) (i, n int, err error) {
	if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d/%d", &i, &n); err != nil {
		return 0, 0, fmt.Errorf("%q is not i/n", s)
	}
	if n < 1 || i < 1 || i > n {
		return 0, 0, fmt.Errorf("%q out of range (want 1 <= i <= n)", s)
	}
	return i, n, nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "areaserve: "+format+"\n", args...)
	os.Exit(1)
}
