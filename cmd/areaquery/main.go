// Command areaquery runs a single ad-hoc area query against a generated
// dataset and prints both methods' results and work statistics — a quick
// way to see the paper's effect without the full benchmark harness.
//
// The polygon is given as a comma-separated list of x,y pairs:
//
//	areaquery -n 100000 -polygon "0.1,0.1 0.5,0.2 0.6,0.6 0.3,0.4 0.1,0.5"
//
// Without -polygon a random 10-gon covering 1% of the universe is used.
//
// With -remote the query runs against running areaserve instances instead
// of a locally built engine:
//
//	areaquery -remote "localhost:8089,localhost:8090" -querysize 2
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
)

func main() {
	var (
		n         = flag.Int("n", 100000, "number of points in the generated dataset")
		seed      = flag.Int64("seed", 1, "random seed")
		polygon   = flag.String("polygon", "", `query polygon as "x,y x,y x,y ..." (>= 3 vertices)`)
		querySize = flag.Float64("querysize", 1, "random query size in percent (without -polygon)")
		clustered = flag.Bool("clustered", false, "use clustered instead of uniform points")
		strict    = flag.Bool("strict", false, "also run the strict expansion variant")
		showIDs   = flag.Bool("ids", false, "print the matching point ids")
		timeout   = flag.Duration("timeout", 0, "per-query deadline (0 = none), e.g. 50ms")
		remote    = flag.String("remote", "", `comma-separated areaserve addresses ("host:port,host:port"); queries run remotely instead of building a local engine`)
	)
	flag.Parse()

	// An -n below 1, a bad -polygon, or a -querysize the random polygon
	// cannot have (it would silently be drawn at 1%), is refused before
	// anything is built or dialled.
	var area vaq.Polygon
	var err error
	if *n < 1 {
		fatalf("bad -n: %d, a point count is at least 1", *n)
	}
	if *polygon != "" {
		if area, err = parsePolygon(*polygon); err != nil {
			fatalf("bad -polygon: %v", err)
		}
	} else if !(*querySize > 0 && *querySize <= 100) {
		fatalf("bad -querysize: %v%% is outside (0, 100]", *querySize)
	}

	rng := rand.New(rand.NewSource(*seed))
	var eng vaq.Querier
	if *remote != "" {
		eng, err = dialRemote(*remote)
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		var pts []vaq.Point
		if *clustered {
			pts = vaq.ClusteredPoints(rng, *n, 8, 0.04, vaq.UnitSquare())
		} else {
			pts = vaq.UniformPoints(rng, *n, vaq.UnitSquare())
		}
		fmt.Fprintf(os.Stderr, "building engine over %d points...\n", *n)
		eng, err = vaq.NewEngine(pts, vaq.UnitSquare())
		if err != nil {
			fatalf("%v", err)
		}
	}

	if *polygon == "" {
		area = vaq.RandomQueryPolygon(rng, 10, *querySize/100, vaq.UnitSquare())
		fmt.Fprintf(os.Stderr, "random query polygon: %v\n", area.Outer)
	}

	methods := []vaq.Method{vaq.Traditional, vaq.VoronoiBFS}
	if *strict {
		methods = append(methods, vaq.VoronoiBFSStrict)
	}
	region := vaq.PolygonRegion(area)
	// The first Traditional query on an engine packs its R-tree (see
	// vaq.Traditional); pay that here, so that time= and -timeout measure
	// the query alone.
	if _, err := vaq.Count(context.Background(), eng, region, vaq.UsingMethod(vaq.Traditional)); err != nil {
		fatalf("%v: %v", vaq.Traditional, err)
	}
	for _, m := range methods {
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if *timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, *timeout)
		}
		var st vaq.Stats
		start := time.Now()
		ids, err := eng.Query(ctx, region, vaq.UsingMethod(m), vaq.WithStatsInto(&st))
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			fatalf("%v: %v", m, err)
		}
		fmt.Printf("%-14s results=%-6d candidates=%-6d redundant=%-6d index_nodes=%-5d loads=%-6d time=%v\n",
			m, st.ResultSize, st.Candidates, st.RedundantValidations,
			st.IndexNodesVisited, st.RecordsLoaded, elapsed)
		if *showIDs {
			fmt.Printf("  ids: %v\n", ids)
		}
	}
}

// dialRemote builds a RemoteEngine over the comma-separated address
// list, defaulting bare host:port entries to http.
func dialRemote(list string) (*vaq.RemoteEngine, error) {
	var urls []string
	for _, a := range strings.Split(list, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		urls = append(urls, strings.TrimRight(a, "/"))
	}
	eng, err := vaq.DialRemote(context.Background(), urls)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "remote engine: %d backends, %d points\n", eng.NumBackends(), eng.Len())
	return eng, nil
}

func parsePolygon(s string) (vaq.Polygon, error) {
	fields := strings.Fields(s)
	if len(fields) < 3 {
		return vaq.Polygon{}, fmt.Errorf("need at least 3 vertices, got %d", len(fields))
	}
	pts := make([]vaq.Point, 0, len(fields))
	for _, f := range fields {
		xy := strings.Split(f, ",")
		if len(xy) != 2 {
			return vaq.Polygon{}, fmt.Errorf("vertex %q is not x,y", f)
		}
		x, err := strconv.ParseFloat(xy[0], 64)
		if err != nil {
			return vaq.Polygon{}, fmt.Errorf("vertex %q: %w", f, err)
		}
		y, err := strconv.ParseFloat(xy[1], 64)
		if err != nil {
			return vaq.Polygon{}, fmt.Errorf("vertex %q: %w", f, err)
		}
		pts = append(pts, vaq.Pt(x, y))
	}
	return vaq.NewPolygon(pts)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "areaquery: "+format+"\n", args...)
	os.Exit(1)
}
