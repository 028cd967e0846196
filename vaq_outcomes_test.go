package vaq_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	vaq "repro"
)

// flavor is one engine flavor under a conformance table, with the registry
// its queries report to.
type flavor struct {
	name, label string // label is the flavor's metric and trace label
	q           vaq.Querier
	reg         *vaq.MetricsRegistry
	requests    *atomic.Int64 // the remote flavor's backend requests; nil on the others
	// at is the point each id was built from: the caller's pts[id], or on
	// the dynamic flavors the point Insert returned the id for.
	at func(id int64) (vaq.Point, bool)
}

// everyFlavor builds the six shipped flavors over pts and universe: static,
// store-backed, sharded, dynamic, a pinned snapshot, and a remote engine over
// two loopback backends. The backends hold pts in arrival order, so each one's
// data_bounds spans nearly the whole universe: pruning by data MBR removes no
// backend from any call of these tables, and no count in them moved with it.
func everyFlavor(t *testing.T, pts []vaq.Point, universe vaq.Rect) []flavor {
	t.Helper()
	var flavors []flavor
	add := func(name, label string, at func(int64) (vaq.Point, bool), build func(vaq.Option) (vaq.Querier, error)) {
		reg := vaq.NewMetricsRegistry()
		q, err := build(vaq.WithMetrics(reg))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		flavors = append(flavors, flavor{name: name, label: label, q: q, reg: reg, at: at})
	}
	input := slices.Clone(pts)
	byIndex := func(id int64) (vaq.Point, bool) {
		if id < 0 || id >= int64(len(input)) {
			return vaq.Point{}, false
		}
		return input[id], true
	}
	inserted := map[int64]vaq.Point{} // both dynamic engines' ids: one insert order
	byInsert := func(id int64) (vaq.Point, bool) { p, ok := inserted[id]; return p, ok }
	dynamic := func(m vaq.Option) *vaq.DynamicEngine {
		d := vaq.NewDynamicEngine(universe, m)
		for _, p := range pts {
			id, _, err := d.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			if q, ok := inserted[id]; ok && q != p {
				t.Fatalf("Insert returned id %d for %v and for %v", id, q, p)
			}
			inserted[id] = p
		}
		return d
	}
	add("static", "static", byIndex, func(m vaq.Option) (vaq.Querier, error) {
		return vaq.NewEngine(pts, universe, m)
	})
	add("store", "static", byIndex, func(m vaq.Option) (vaq.Querier, error) {
		return vaq.NewEngine(pts, universe, m, vaq.WithStore(vaq.StoreConfig{PageSize: 4096, PoolPages: 8}))
	})
	add("sharded", "sharded", byIndex, func(m vaq.Option) (vaq.Querier, error) {
		return vaq.NewShardedEngine(pts, universe, m, vaq.WithShards(4))
	})
	add("dynamic", "dynamic", byInsert, func(m vaq.Option) (vaq.Querier, error) { return dynamic(m), nil })
	add("snapshot", "dynamic", byInsert, func(m vaq.Option) (vaq.Querier, error) { return dynamic(m).Snapshot(), nil })
	fixture := startFixtureOver(t, pts, universe, len(pts)*2/5)
	add("remote", "remote", byIndex, func(m vaq.Option) (vaq.Querier, error) { return fixture.dial(t, m), nil })
	flavors[len(flavors)-1].requests = &fixture.requests
	return flavors
}

// TestEveryOutcomeIsObservedOnce is the conformance table of what surrounds
// a query rather than what it returns: on every flavor, for Query, QueryAll
// and Each, whether the call succeeds, fails on the caller's input or finds
// its context cancelled, WithStatsInto is written, a reused WithTraceInto
// trace is reset and finished, and the registry counts the call exactly
// once, under the right outcome. A custom Region succeeds on every local
// flavor and is the caller's error on the remote one, which sends no request
// for it and counts no failed backend call.
func TestEveryOutcomeIsObservedOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts := vaq.UniformPoints(rng, 1500, vaq.UnitSquare())
	good := vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.5, 0.5), 0.1))
	outside := vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.95, 0.5), 0.1)) // pokes out of the unit square
	custom := anchoredRegion{good, good.InteriorPoint(), good.Bounds()}
	const badMethod = vaq.Method(99)

	flavors := everyFlavor(t, pts, vaq.UnitSquare())

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	type outcome struct {
		name    string
		ctx     context.Context
		regions []vaq.Region // Query and Each take the last
		method  vaq.Method
		counter string // the outcome counter the call must bump; "" for success
		is      error  // what the error must match; nil for success
		remote  bool   // counter and is hold on the remote flavor only; the rest succeed
	}
	outcomes := []outcome{
		{"ok", context.Background(), []vaq.Region{good, good, good}, vaq.VoronoiBFS, "", nil, false},
		{"unknown method", context.Background(), []vaq.Region{good, good}, badMethod, "vaq_query_errors_total", nil, false},
		{"outside universe", context.Background(), []vaq.Region{good, outside}, vaq.VoronoiBFS, "vaq_query_errors_total", vaq.ErrOutsideUniverse, false},
		{"cancelled", cancelled, []vaq.Region{good, good}, vaq.VoronoiBFS, "vaq_query_cancellations_total", context.Canceled, false},
		{"custom region", context.Background(), []vaq.Region{good, custom}, vaq.VoronoiBFS, "vaq_query_errors_total", vaq.ErrCustomRegion, true},
	}

	for _, f := range flavors {
		for _, o := range outcomes {
			if o.remote && f.label != "remote" {
				o.counter, o.is = "", nil
			}
			methodLabel := o.method.String()
			if o.method == badMethod {
				methodLabel = "other"
			}
			perMethod := func(base string) string {
				return fmt.Sprintf("%s{flavor=%q,method=%q}", base, f.label, methodLabel)
			}
			batches := fmt.Sprintf("vaq_batches_total{flavor=%q}", f.label)
			last := o.regions[len(o.regions)-1]

			ops := []struct {
				name    string
				queries uint64 // what the call adds to vaq_queries_total
				batches uint64
				call    func(opts ...vaq.QueryOpt) error
			}{
				{"Query", 1, 0, func(opts ...vaq.QueryOpt) error {
					_, err := f.q.Query(o.ctx, last, opts...)
					return err
				}},
				{"QueryAll", uint64(len(o.regions)), 1, func(opts ...vaq.QueryOpt) error {
					_, err := f.q.QueryAll(o.ctx, o.regions, opts...)
					return err
				}},
				{"Each", 1, 0, func(opts ...vaq.QueryOpt) error {
					return f.q.Each(o.ctx, last, func(int64, vaq.Point) bool { return true }, opts...)
				}},
			}
			for _, op := range ops {
				t.Run(f.name+"/"+op.name+"/"+o.name, func(t *testing.T) {
					// A trace and a stats value that still hold an earlier,
					// different query.
					var tr vaq.QueryTrace
					var st vaq.Stats
					if _, err := f.q.Query(context.Background(), good,
						vaq.UsingMethod(vaq.Traditional), vaq.WithTraceInto(&tr), vaq.WithStatsInto(&st)); err != nil {
						t.Fatal(err)
					}
					if st.IndexNodesVisited == 0 || !strings.Contains(tr.String(), "method=traditional ") {
						t.Fatalf("setup query left stats %+v, %s", st, tr.String())
					}
					before := f.reg.Snapshot().Counters
					re, _ := f.q.(*vaq.RemoteEngine)
					var dropped uint64
					if re != nil {
						dropped = re.Dropped()
					}

					err := op.call(vaq.UsingMethod(o.method), vaq.WithTraceInto(&tr), vaq.WithStatsInto(&st))
					if o.remote && re != nil && re.Dropped() != dropped {
						t.Errorf("Dropped moved by %d on a caller error", re.Dropped()-dropped)
					}
					switch {
					case o.counter == "" && err != nil:
						t.Fatal(err)
					case o.counter != "" && err == nil:
						t.Fatal("no error")
					case o.is != nil && !errors.Is(err, o.is):
						t.Fatalf("err = %v, want %v", err, o.is)
					}

					// No outcome's method walks the index, as the setup query's did.
					if st.IndexNodesVisited != 0 {
						t.Errorf("WithStatsInto not written: still holds the setup query's %+v", st)
					}
					if o.counter == "" && st.ResultSize == 0 {
						t.Errorf("WithStatsInto holds no results after a successful call: %+v", st)
					}
					if o.counter != "" && st.ResultSize != 0 {
						t.Errorf("WithStatsInto reports %d results for a failed call", st.ResultSize)
					}
					if s := tr.String(); !strings.Contains(s, "flavor="+f.label+" method="+o.method.String()+" ") {
						t.Errorf("trace not reset: %s", s)
					}
					if tr.Total() <= 0 {
						t.Errorf("trace not finished: %s", tr.String())
					}

					after := f.reg.Snapshot().Counters
					delta := func(name string) uint64 { return after[name] - before[name] }
					if got := delta(perMethod("vaq_queries_total")); got != op.queries {
						t.Errorf("vaq_queries_total moved by %d, want %d", got, op.queries)
					}
					if got := delta(batches); got != op.batches {
						t.Errorf("vaq_batches_total moved by %d, want %d", got, op.batches)
					}
					for _, c := range []string{"vaq_query_errors_total", "vaq_query_cancellations_total"} {
						want := uint64(0)
						if c == o.counter {
							want = 1
						}
						if got := delta(perMethod(c)); got != want {
							t.Errorf("%s moved by %d, want %d", c, got, want)
						}
					}
				})
			}
		}
	}
}

// TestRegionEscapingTheUniverseIsRefusedNotAnswered is the probe that found
// the one wrong answer with a nil error, as a case on every flavor: points in
// the left half of the unit square, engines over their tight MBR, and a
// C-shaped polygon whose spine lies outside that universe while its two arms
// reach in. The part of the region inside the universe is two disconnected
// pieces; a Voronoi expansion from one seed reaches one, so an engine that
// answered lost the other arm's points. Every flavor now refuses the region
// — from Query, QueryAll (naming the index) and Each — and, translated
// inside the universe, the strict rule and the traditional method equal
// brute force.
func TestRegionEscapingTheUniverseIsRefusedNotAnswered(t *testing.T) {
	cShape := func(dx float64) vaq.Region { // arms from x = 0.45+dx to the spine at 0.85+dx
		return vaq.PolygonRegion(vaq.MustPolygon([]vaq.Point{
			vaq.Pt(0.45+dx, 0.2), vaq.Pt(0.9+dx, 0.2), vaq.Pt(0.9+dx, 0.8), vaq.Pt(0.45+dx, 0.8),
			vaq.Pt(0.45+dx, 0.7), vaq.Pt(0.85+dx, 0.7), vaq.Pt(0.85+dx, 0.3), vaq.Pt(0.45+dx, 0.3),
		}))
	}
	escaping, inside := cShape(0), cShape(-0.42)
	ctx := context.Background()
	for seed := int64(1); seed <= 10; seed++ {
		pts := vaq.UniformPoints(rand.New(rand.NewSource(seed)), 2000, vaq.NewRect(0, 0, 0.5, 1))
		universe := vaq.NewRect(pts[0].X, pts[0].Y, pts[0].X, pts[0].Y)
		for _, p := range pts {
			universe = universe.ExtendPoint(p)
		}
		for _, f := range everyFlavor(t, pts, universe) {
			name := fmt.Sprintf("seed %d %s", seed, f.name)
			_, err := f.q.Query(ctx, escaping, vaq.UsingMethod(vaq.VoronoiBFSStrict))
			if !errors.Is(err, vaq.ErrOutsideUniverse) {
				t.Errorf("%s: Query(escaping) err = %v, want ErrOutsideUniverse", name, err)
			}
			_, err = f.q.QueryAll(ctx, []vaq.Region{inside, escaping})
			if !errors.Is(err, vaq.ErrOutsideUniverse) || !strings.Contains(err.Error(), "batch query 1") {
				t.Errorf("%s: QueryAll(inside, escaping) err = %v, want ErrOutsideUniverse naming query 1", name, err)
			}
			err = f.q.Each(ctx, escaping, func(int64, vaq.Point) bool {
				t.Errorf("%s: Each(escaping) yielded a result", name)
				return false
			})
			if !errors.Is(err, vaq.ErrOutsideUniverse) {
				t.Errorf("%s: Each(escaping) err = %v, want ErrOutsideUniverse", name, err)
			}

			want, err := f.q.Query(ctx, inside, vaq.UsingMethod(vaq.BruteForce))
			if err != nil || len(want) == 0 {
				t.Fatalf("%s: oracle: %d ids, err %v", name, len(want), err)
			}
			for _, m := range []vaq.Method{vaq.VoronoiBFSStrict, vaq.Traditional} {
				got, err := f.q.Query(ctx, inside, vaq.UsingMethod(m))
				if err != nil || !slices.Equal(got, want) {
					t.Errorf("%s: %v inside the universe returned %d ids (err %v), brute force %d", name, m, len(got), err, len(want))
				}
			}
		}
	}
}

// anchoredRegion is a custom Region: a disk that reports the interior point
// and the MBR it is told to.
type anchoredRegion struct {
	vaq.Region
	anchor vaq.Point
	mbr    vaq.Rect
}

func (r anchoredRegion) InteriorPoint() vaq.Point { return r.anchor }
func (r anchoredRegion) Bounds() vaq.Rect         { return r.mbr }

// TestNonFiniteRegionIsRefused: a Region — a custom one, or a circle around
// a NaN centre — whose interior point or MBR has a NaN or infinite coordinate
// is refused with ErrOutsideUniverse by
// Query, QueryAll and Each on every flavor, under every method. Such a region
// used to be answered — the R-tree's nearest-neighbor search, all its
// comparisons false, seeded the BFS from id 0, and the answer came back wrong
// with a nil error; the seed walk would start from bucket 0's site and stop
// there, as wrong.
func TestNonFiniteRegionIsRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := vaq.UniformPoints(rng, 800, vaq.UnitSquare())
	disk := vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.5, 0.5), 0.1))
	nan, inf := math.NaN(), math.Inf(1)
	regions := map[string]vaq.Region{
		"NaN interior x":  anchoredRegion{disk, vaq.Pt(nan, 0.5), disk.Bounds()},
		"NaN interior y":  anchoredRegion{disk, vaq.Pt(0.5, nan), disk.Bounds()},
		"+Inf interior":   anchoredRegion{disk, vaq.Pt(inf, 0.5), disk.Bounds()},
		"-Inf interior":   anchoredRegion{disk, vaq.Pt(0.5, -inf), disk.Bounds()},
		"NaN bounds":      anchoredRegion{disk, disk.InteriorPoint(), vaq.Rect{MinX: nan, MinY: 0.4, MaxX: 0.6, MaxY: 0.6}},
		"infinite bounds": anchoredRegion{disk, disk.InteriorPoint(), vaq.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.6, MaxY: inf}},
		"NaN circle":      vaq.CircleRegion(vaq.NewCircle(vaq.Pt(nan, 0.5), 0.1)),
	}
	ctx := context.Background()
	for _, f := range everyFlavor(t, pts, vaq.UnitSquare()) {
		for rname, region := range regions {
			for _, m := range []vaq.Method{vaq.VoronoiBFS, vaq.VoronoiBFSStrict, vaq.Traditional, vaq.BruteForce} {
				name := fmt.Sprintf("%s, %s, %v", f.name, rname, m)
				ids, err := f.q.Query(ctx, region, vaq.UsingMethod(m))
				if !errors.Is(err, vaq.ErrOutsideUniverse) || ids != nil {
					t.Errorf("%s: Query returned %d ids, err %v; want ErrOutsideUniverse", name, len(ids), err)
				}
				_, err = f.q.QueryAll(ctx, []vaq.Region{disk, region}, vaq.UsingMethod(m))
				if !errors.Is(err, vaq.ErrOutsideUniverse) || !strings.Contains(err.Error(), "batch query 1") {
					t.Errorf("%s: QueryAll err = %v, want ErrOutsideUniverse naming query 1", name, err)
				}
				err = f.q.Each(ctx, region, func(int64, vaq.Point) bool {
					t.Errorf("%s: Each yielded a result", name)
					return false
				}, vaq.UsingMethod(m))
				if !errors.Is(err, vaq.ErrOutsideUniverse) {
					t.Errorf("%s: Each err = %v, want ErrOutsideUniverse", name, err)
				}
			}
		}
	}
}

// TestNonSimpleLiteralsAreRefused: a Polygon written as a literal skips
// NewPolygon and AddHole, and one they would refuse was answered — a ring
// that crosses itself whose interior point lies inside its MBR (the
// figure-eight, the ring that doubles back) got thousands of wrong ids from
// VoronoiBFSStrict over 5000 sites, fence ids that name no point among them,
// and crashed the sharded engine in a worker goroutine; a bowtie, whose
// interior point leaves its MBR, was refused as outside the universe; a
// ring pinched at a vertex and holes that cross the outer ring or nest were
// answered on a path that validated every boundary site; and a NaN or
// infinite vertex panicked Prepare and every query on the plain literal.
// A literal passed by pointer skipped that check: it ran as a custom region,
// so the figure-eight was answered there, and the bowtie refused as outside
// the universe. Plain, by pointer or prepared, each is refused with the
// error NewPolygon or AddHole returns for it — ErrSelfIntersect, or ErrNonFinite — by Query, QueryAll
// and Each on every flavor, under every method, with no id and no yield;
// the remote flavor sends no request and counts no dropped call.
func TestNonSimpleLiteralsAreRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := vaq.UniformPoints(rng, 5000, vaq.UnitSquare())
	ring := func(xy ...float64) vaq.Ring {
		var r vaq.Ring
		for i := 0; i+1 < len(xy); i += 2 {
			r = append(r, vaq.Pt(xy[i], xy[i+1]))
		}
		return r
	}
	rect := func(x0, y0, x1, y1 float64) vaq.Ring { return ring(x0, y0, x1, y0, x1, y1, x0, y1) }
	type literal struct {
		pg   vaq.Polygon
		want error
	}
	literals := map[string]literal{
		"bowtie":         {vaq.Polygon{Outer: ring(0.2, 0.2, 0.8, 0.8, 0.8, 0.2, 0.2, 0.8)}, vaq.ErrSelfIntersect},
		"figure-eight":   {vaq.Polygon{Outer: ring(0.1, 0.1, 0.9, 0.6, 0.9, 0.1, 0.1, 0.3)}, vaq.ErrSelfIntersect},
		"doubling back":  {vaq.Polygon{Outer: ring(0.1, 0.1, 0.9, 0.1, 0.9, 0.9, 0.3, 0.9, 0.3, 0.05, 0.2, 0.05, 0.2, 0.95, 0.1, 0.95)}, vaq.ErrSelfIntersect},
		"pinched":        {vaq.Polygon{Outer: ring(0.1, 0.1, 0.5, 0.5, 0.9, 0.3, 0.9, 0.9, 0.5, 0.5, 0.1, 0.6)}, vaq.ErrSelfIntersect},
		"hole across":    {vaq.Polygon{Outer: ring(0.1, 0.1, 0.9, 0.1, 0.1, 0.9), Holes: []vaq.Ring{rect(0.4, 0.4, 0.7, 0.7)}}, vaq.ErrSelfIntersect},
		"hole in a hole": {vaq.Polygon{Outer: rect(0.1, 0.1, 0.9, 0.9), Holes: []vaq.Ring{rect(0.2, 0.2, 0.8, 0.8), rect(0.3, 0.3, 0.7, 0.7)}}, vaq.ErrSelfIntersect},
		"NaN vertex":     {vaq.Polygon{Outer: ring(0.1, 0.1, 0.9, 0.1, math.NaN(), 0.9, 0.1, 0.9)}, vaq.ErrNonFinite},
		"infinite hole":  {vaq.Polygon{Outer: rect(0.1, 0.1, 0.9, 0.9), Holes: []vaq.Ring{ring(0.4, 0.4, math.Inf(1), 0.4, 0.5, 0.6)}}, vaq.ErrNonFinite},
	}
	for name, lit := range literals {
		pg, err := vaq.NewPolygon(lit.pg.Outer)
		for _, h := range lit.pg.Holes {
			if err == nil {
				err = pg.AddHole(h)
			}
		}
		if err != lit.want {
			t.Fatalf("%s: building it through NewPolygon and AddHole: err %v, want %v", name, err, lit.want)
		}
	}
	disk := vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.5, 0.5), 0.1))
	ctx := context.Background()
	for _, f := range everyFlavor(t, pts, vaq.UnitSquare()) {
		re, _ := f.q.(*vaq.RemoteEngine)
		for lname, lit := range literals {
			for form, region := range map[string]vaq.Region{"plain": lit.pg, "pointer": &lit.pg, "prepared": vaq.PolygonRegion(lit.pg)} {
				for _, m := range []vaq.Method{vaq.VoronoiBFS, vaq.VoronoiBFSStrict, vaq.Traditional, vaq.BruteForce} {
					name := fmt.Sprintf("%s, %s %s, %v", f.name, form, lname, m)
					var requests int64
					var dropped uint64
					if re != nil {
						requests, dropped = f.requests.Load(), re.Dropped()
					}
					ids, err := f.q.Query(ctx, region, vaq.UsingMethod(m))
					if !errors.Is(err, lit.want) || ids != nil {
						t.Errorf("%s: Query returned %d ids, err %v; want %v", name, len(ids), err, lit.want)
					}
					all, err := f.q.QueryAll(ctx, []vaq.Region{disk, region}, vaq.UsingMethod(m))
					if !errors.Is(err, lit.want) || !strings.Contains(err.Error(), "batch query 1") || all != nil {
						t.Errorf("%s: QueryAll returned %d results, err %v; want %v naming query 1", name, len(all), err, lit.want)
					}
					err = f.q.Each(ctx, region, func(int64, vaq.Point) bool {
						t.Errorf("%s: Each yielded a result", name)
						return false
					}, vaq.UsingMethod(m))
					if !errors.Is(err, lit.want) {
						t.Errorf("%s: Each err = %v, want %v", name, err, lit.want)
					}
					if re != nil && (f.requests.Load() != requests || re.Dropped() != dropped) {
						t.Errorf("%s: the backends saw %d requests and Dropped moved by %d, want neither",
							name, f.requests.Load()-requests, re.Dropped()-dropped)
					}
				}
			}
		}
	}
}

// TestCircleMembershipHasOneDefinition: a site exactly on a circle can lie
// one ulp outside the circle's rounded MBR. Traditional and BruteForce filter
// by that MBR, the Voronoi rules by containment alone, so the disk must
// refuse such a site too, or the methods disagree. Sites 1/17 apart on a row
// and three off it; the circle is centred between sites 1 and 12 and passes
// through site 1. Every method on every flavor returns sites 2–12.
func TestCircleMembershipHasOneDefinition(t *testing.T) {
	var pts []vaq.Point
	for i := 0; i <= 16; i++ {
		pts = append(pts, vaq.Pt(float64(i)/17, 0.5))
	}
	pts = append(pts, vaq.Pt(0.5, 0.1), vaq.Pt(0.5, 0.9), vaq.Pt(0.1, 0.9))
	centre := vaq.Pt((pts[1].X+pts[12].X)/2, (pts[1].Y+pts[12].Y)/2)
	disk := vaq.NewCircle(centre, math.Sqrt(centre.Dist2(pts[1])))
	if disk.Bounds().ContainsPoint(pts[1]) {
		t.Fatalf("fixture: site 1 %v lies inside the MBR %v", pts[1], disk.Bounds())
	}
	region := vaq.CircleRegion(disk)
	want := []int64{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	ctx := context.Background()
	for _, f := range everyFlavor(t, pts, vaq.UnitSquare()) {
		var first []int64
		for _, m := range []vaq.Method{vaq.Traditional, vaq.VoronoiBFS, vaq.VoronoiBFSStrict, vaq.BruteForce} {
			ids, err := f.q.Query(ctx, region, vaq.UsingMethod(m))
			if err != nil {
				t.Fatalf("%s, %v: %v", f.name, m, err)
			}
			if first == nil {
				first = ids
			}
			if !slices.Equal(ids, first) || len(ids) != len(want) {
				t.Errorf("%s, %v: %v; want the %d ids %v gave", f.name, m, ids, len(want), first)
			}
			if f.label != "dynamic" && !slices.Equal(ids, want) {
				t.Errorf("%s, %v: %v, want %v", f.name, m, ids, want)
			}
		}
	}
}

// TestPlainShapesAreRegions: a Polygon and a Circle are Regions as they are,
// and so are pointers to them: admission prepares a polygon, by value or by
// pointer, and reads a circle through its pointer, so every flavor answers
// all four exactly as it answers PolygonRegion and CircleRegion — the same
// ids and the same Stats, under every method, alone and in a mixed batch.
// The remote flavor's codec once refused the plain shapes as having no wire
// encoding, and later the pointers as custom regions; a *Polygon once ran
// as a custom region everywhere, whose strict rule tests cells. The strict
// method traces a polygon's boundary and runs the segment rule on a circle,
// with no cell test on either.
func TestPlainShapesAreRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pts := vaq.UniformPoints(rng, 2000, vaq.UnitSquare())
	circle := vaq.NewCircle(vaq.Pt(0.45, 0.55), 0.1)
	polygon := vaq.RandomQueryPolygon(rng, 10, 0.05, vaq.UnitSquare())
	plain := []vaq.Region{circle, polygon, &circle, &polygon}
	wrapped := []vaq.Region{vaq.CircleRegion(circle), vaq.PolygonRegion(polygon), vaq.CircleRegion(circle), vaq.PolygonRegion(polygon)}
	ctx := context.Background()

	for _, f := range everyFlavor(t, pts, vaq.UnitSquare()) {
		for _, m := range []vaq.Method{vaq.Traditional, vaq.VoronoiBFS, vaq.VoronoiBFSStrict, vaq.BruteForce} {
			for i := range plain {
				var stPlain, stWrapped vaq.Stats
				want, err := f.q.Query(ctx, wrapped[i], vaq.UsingMethod(m), vaq.WithStatsInto(&stWrapped))
				if err != nil {
					t.Fatalf("%s/%v: wrapped %T: %v", f.name, m, plain[i], err)
				}
				got, err := f.q.Query(ctx, plain[i], vaq.UsingMethod(m), vaq.WithStatsInto(&stPlain))
				if err != nil {
					t.Fatalf("%s/%v: plain %T: %v", f.name, m, plain[i], err)
				}
				if len(want) == 0 || !slices.Equal(got, want) {
					t.Errorf("%s/%v: plain %T answers %d ids, wrapped %d", f.name, m, plain[i], len(got), len(want))
				}
				segmentRule := i%2 == 0 && m == vaq.VoronoiBFSStrict // a circle
				if stPlain.CellTests != 0 || stPlain != stWrapped || segmentRule && stPlain.SegmentTests == 0 {
					t.Errorf("%s/%v: plain %T %+v, wrapped %+v", f.name, m, plain[i], stPlain, stWrapped)
				}
			}
			var stPlain, stWrapped vaq.Stats
			want, err := f.q.QueryAll(ctx, wrapped, vaq.UsingMethod(m), vaq.WithStatsInto(&stWrapped))
			if err != nil {
				t.Fatalf("%s/%v: wrapped batch: %v", f.name, m, err)
			}
			got, err := f.q.QueryAll(ctx, plain, vaq.UsingMethod(m), vaq.WithStatsInto(&stPlain))
			if err != nil {
				t.Fatalf("%s/%v: plain batch: %v", f.name, m, err)
			}
			if !slices.EqualFunc(got, want, slices.Equal[[]int64]) || stPlain != stWrapped {
				t.Errorf("%s/%v: the plain batch (%+v) diverges from the wrapped one (%+v)", f.name, m, stPlain, stWrapped)
			}
		}
		if re, ok := f.q.(*vaq.RemoteEngine); ok && re.Dropped() != 0 {
			t.Errorf("%s: %d backend calls failed", f.name, re.Dropped())
		}
	}
}

// TestNoEngineReadsItsCallersSlice: an engine indexes and answers from its
// own copy of the positions — its R-tree's leaves read that copy in place —
// so a caller that reuses its input slice after construction changes no
// answer. On every flavor and an 8-shard engine every point of the slice is
// then mirrored through the square's centre, and every method, Traditional
// included, must return the ids it returned before. Each is where a result's
// position comes from: it must yield exactly Query's ids, each with the
// point it was built from (the input position, or on a dynamic flavor the
// point Insert returned the id for), and over the whole universe every id.
func TestNoEngineReadsItsCallersSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	pts := vaq.UniformPoints(rng, 2000, vaq.UnitSquare())
	regions := []vaq.Region{
		vaq.PolygonRegion(vaq.RandomQueryPolygon(rng, 10, 0.05, vaq.UnitSquare())),
		vaq.NewCircle(vaq.Pt(0.3, 0.65), 0.12),
		vaq.PolygonRegion(vaq.MustPolygon([]vaq.Point{vaq.Pt(0, 0), vaq.Pt(1, 0), vaq.Pt(1, 1), vaq.Pt(0, 1)})),
	}
	const everything = 2 // the region holding every point
	methods := []vaq.Method{vaq.Traditional, vaq.VoronoiBFS, vaq.VoronoiBFSStrict, vaq.BruteForce}
	flavors := everyFlavor(t, pts, vaq.UnitSquare())
	sharded8, err := vaq.NewShardedEngine(pts, vaq.UnitSquare(), vaq.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	flavors = append(flavors, flavor{name: "sharded-8", q: sharded8, at: flavors[0].at})
	ctx := context.Background()
	answers := func() map[string][]int64 {
		out := map[string][]int64{}
		for _, f := range flavors {
			for _, m := range methods {
				for i, r := range regions {
					ids, err := f.q.Query(ctx, r, vaq.UsingMethod(m))
					if err != nil {
						t.Fatal(err)
					}
					out[fmt.Sprintf("%s/%v/region %d", f.name, m, i)] = ids
				}
			}
		}
		return out
	}
	before := answers()
	for i, p := range pts {
		pts[i] = vaq.Pt(1-p.X, 1-p.Y)
	}
	for key, got := range answers() {
		if len(before[key]) == 0 || !slices.Equal(got, before[key]) {
			t.Errorf("%s: %d ids after the caller's slice changed, %d before", key, len(got), len(before[key]))
		}
	}
	for _, f := range flavors {
		for _, m := range methods {
			for i, r := range regions {
				key := fmt.Sprintf("%s/%v/region %d", f.name, m, i)
				var yielded []int64
				var moved error
				err := f.q.Each(ctx, r, func(id int64, p vaq.Point) bool {
					if want, ok := f.at(id); !ok || p != want {
						moved = fmt.Errorf("id %d yielded at %v, built from %v (known %v)", id, p, want, ok)
						return false
					}
					yielded = append(yielded, id)
					return true
				}, vaq.UsingMethod(m))
				if err != nil || moved != nil {
					t.Fatalf("%s: Each: %v, %v", key, err, moved)
				}
				slices.Sort(yielded)
				if want := slices.Sorted(slices.Values(before[key])); !slices.Equal(yielded, want) {
					t.Errorf("%s: Each yielded %d ids, Query returned %d", key, len(yielded), len(want))
				}
				if i == everything && len(yielded) != len(pts) {
					t.Errorf("%s: Each over the universe yielded %d ids, want %d", key, len(yielded), len(pts))
				}
			}
		}
	}
}
