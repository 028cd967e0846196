package vaq

import (
	"context"
	"math/rand"
	"slices"
	"testing"
)

// querierFlavor is one backend under conformance test. toGlobal maps a
// backend result id to its index in the shared dataset slice (the dynamic
// flavors assign their own ids at insert time).
type querierFlavor struct {
	name     string
	q        Querier
	toGlobal map[int64]int64
}

// buildFlavors constructs all four Querier backends over one dataset.
func buildFlavors(t *testing.T, pts []Point) []querierFlavor {
	t.Helper()
	eng, err := NewEngine(pts, UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedEngine(pts, UnitSquare(), WithShards(7))
	if err != nil {
		t.Fatal(err)
	}
	dyn := NewDynamicEngine(UnitSquare())
	toGlobal := make(map[int64]int64, len(pts))
	for i, p := range pts {
		id, inserted, err := dyn.Insert(p)
		if err != nil || !inserted {
			t.Fatalf("insert %d: inserted=%v err=%v", i, inserted, err)
		}
		toGlobal[id] = int64(i)
	}
	return []querierFlavor{
		{name: "engine", q: eng},
		{name: "sharded", q: sharded},
		{name: "dynamic", q: dyn, toGlobal: toGlobal},
		{name: "snapshot", q: dyn.Snapshot(), toGlobal: toGlobal},
	}
}

// globalSet maps a backend result to sorted dataset indexes.
func (f *querierFlavor) globalSet(t *testing.T, ids []int64) []int64 {
	t.Helper()
	out := make([]int64, len(ids))
	for i, id := range ids {
		if f.toGlobal == nil {
			out[i] = id
			continue
		}
		g, ok := f.toGlobal[id]
		if !ok {
			t.Fatalf("%s: result id %d unknown to the dataset", f.name, id)
		}
		out[i] = g
	}
	slices.Sort(out)
	return out
}

// conformanceRegions returns the query shapes the suite sweeps: a concave
// polygon, a thin sliver (the paper's adversarial shape), a disk, and a
// region covering no points.
func conformanceRegions(rng *rand.Rand) map[string]Region {
	return map[string]Region{
		"concave": PolygonRegion(RandomQueryPolygon(rng, 10, 0.05, UnitSquare())),
		"sliver": PolygonRegion(MustPolygon([]Point{
			Pt(0.10, 0.10), Pt(0.90, 0.12), Pt(0.90, 0.13),
			Pt(0.12, 0.125), Pt(0.11, 0.30), Pt(0.10, 0.30),
		})),
		"circle": CircleRegion(NewCircle(Pt(0.6, 0.4), 0.12)),
		"empty":  PolygonRegion(MustPolygon([]Point{Pt(0.0001, 0.0001), Pt(0.0002, 0.0001), Pt(0.0002, 0.0002)})),
	}
}

// TestQuerierConformance pins, for every backend × method × region ×
// option combination, that Query/QueryAll/Each agree byte-identically with
// the backend's own brute-force oracle (all new-API results are in
// ascending id order) and cross-backend with a reference scan of the
// dataset.
func TestQuerierConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pts := UniformPoints(rng, 3000, UnitSquare())
	flavors := buildFlavors(t, pts)
	regions := conformanceRegions(rng)
	ctx := context.Background()

	for rname, region := range regions {
		// Reference result: dataset indexes inside the region, ascending.
		var ref []int64
		for i, p := range pts {
			if region.ContainsPoint(p) {
				ref = append(ref, int64(i))
			}
		}
		for fi := range flavors {
			f := &flavors[fi]
			// The backend's own oracle, through the same new API.
			oracle, err := f.q.Query(ctx, region, UsingMethod(BruteForce))
			if err != nil {
				t.Fatalf("%s/%s: oracle: %v", f.name, rname, err)
			}
			if !slices.Equal(f.globalSet(t, oracle), ref) {
				t.Fatalf("%s/%s: oracle diverges from reference scan", f.name, rname)
			}
			for _, m := range []Method{Traditional, VoronoiBFS, VoronoiBFSStrict, BruteForce} {
				t.Run(f.name+"/"+rname+"/"+m.String(), func(t *testing.T) {
					var st Stats
					got, err := f.q.Query(ctx, region, UsingMethod(m), WithStatsInto(&st))
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, oracle) {
						t.Fatalf("Query: %d ids, oracle %d — not byte-identical", len(got), len(oracle))
					}
					if st.ResultSize != len(got) {
						t.Errorf("stats.ResultSize = %d, want %d", st.ResultSize, len(got))
					}
					// Every result is validated, except the sites the strict
					// rule on a polygon emits untested (Stats.Candidates).
					if m == VoronoiBFSStrict {
						if st.RecordsLoaded != st.Candidates || st.RedundantValidations < 0 ||
							st.Candidates-st.RedundantValidations > st.ResultSize {
							t.Errorf("strict accounting broken: %+v", st)
						}
					} else if st.Candidates < len(got) {
						t.Errorf("stats.Candidates = %d < results %d", st.Candidates, len(got))
					}

					// CountOnly: nil ids, count in stats.
					var cst Stats
					ids, err := f.q.Query(ctx, region, UsingMethod(m), CountOnly(), WithStatsInto(&cst))
					if err != nil {
						t.Fatal(err)
					}
					if ids != nil {
						t.Errorf("CountOnly returned %d ids, want nil", len(ids))
					}
					if cst.ResultSize != len(oracle) {
						t.Errorf("CountOnly count = %d, want %d", cst.ResultSize, len(oracle))
					}
					if n, err := Count(ctx, f.q, region, UsingMethod(m)); err != nil || n != len(oracle) {
						t.Errorf("Count helper = %d (err %v), want %d", n, err, len(oracle))
					}
					// A caller-supplied WithStatsInto reaches through the
					// Count helper's own stats plumbing.
					var hst Stats
					if _, err := Count(ctx, f.q, region, UsingMethod(m), WithStatsInto(&hst)); err != nil {
						t.Fatal(err)
					}
					if hst.ResultSize != len(oracle) || hst != cst {
						t.Errorf("Count WithStatsInto = %+v, want the CountOnly query's %+v", hst, cst)
					}

					// Reuse: same result, caller's buffer backs it when it
					// fits.
					buf := make([]int64, 0, len(oracle)+8)
					got, err = f.q.Query(ctx, region, UsingMethod(m), Reuse(buf))
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, oracle) {
						t.Fatal("Reuse changed the result")
					}

					// Each: streamed yields cover exactly the oracle set.
					var est Stats
					var streamed []int64
					err = f.q.Each(ctx, region, func(id int64, p Point) bool {
						streamed = append(streamed, id)
						if want, ok := f.pointOf(pts, id); !ok || p != want {
							t.Fatalf("Each: id %d position %v, want %v", id, p, want)
						}
						return true
					}, UsingMethod(m), WithStatsInto(&est))
					if err != nil {
						t.Fatal(err)
					}
					slices.Sort(streamed)
					if !slices.Equal(streamed, oracle) {
						t.Fatalf("Each streamed %d ids, oracle %d", len(streamed), len(oracle))
					}
					if est.ResultSize != len(oracle) {
						t.Errorf("Each stats.ResultSize = %d, want %d", est.ResultSize, len(oracle))
					}
				})
			}
		}
	}
}

// pointOf resolves a backend id to its dataset coordinates.
func (f *querierFlavor) pointOf(pts []Point, id int64) (Point, bool) {
	if f.toGlobal == nil {
		if id < 0 || id >= int64(len(pts)) {
			return Point{}, false
		}
		return pts[id], true
	}
	g, ok := f.toGlobal[id]
	if !ok {
		return Point{}, false
	}
	return pts[g], true
}

// TestQueryAllMatchesQuery pins that the one batch entry point returns,
// for every backend and method, exactly the per-region Query results.
func TestQueryAllMatchesQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pts := UniformPoints(rng, 2500, UnitSquare())
	flavors := buildFlavors(t, pts)
	ctx := context.Background()

	regions := make([]Region, 12)
	for i := range regions {
		if i%3 == 2 {
			regions[i] = CircleRegion(NewCircle(Pt(0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64()), 0.08))
		} else {
			regions[i] = PolygonRegion(RandomQueryPolygon(rng, 8, 0.02, UnitSquare()))
		}
	}

	for _, f := range flavors {
		for _, m := range []Method{Traditional, VoronoiBFS} {
			var agg Stats
			out, err := f.q.QueryAll(ctx, regions, UsingMethod(m), WithStatsInto(&agg))
			if err != nil {
				t.Fatalf("%s/%v: %v", f.name, m, err)
			}
			if len(out) != len(regions) {
				t.Fatalf("%s/%v: %d results for %d regions", f.name, m, len(out), len(regions))
			}
			total := 0
			for i, region := range regions {
				want, err := f.q.Query(ctx, region, UsingMethod(m))
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(out[i], want) {
					t.Fatalf("%s/%v: batch result %d diverges from Query", f.name, m, i)
				}
				total += len(want)
			}
			if agg.ResultSize != total {
				t.Errorf("%s/%v: aggregate ResultSize = %d, want %d", f.name, m, agg.ResultSize, total)
			}

			// CountOnly batch: nil slices, aggregate count preserved.
			var cagg Stats
			cout, err := f.q.QueryAll(ctx, regions, UsingMethod(m), CountOnly(), WithStatsInto(&cagg))
			if err != nil {
				t.Fatalf("%s/%v: CountOnly batch: %v", f.name, m, err)
			}
			for i := range cout {
				if cout[i] != nil {
					t.Fatalf("%s/%v: CountOnly batch slice %d not nil", f.name, m, i)
				}
			}
			if cagg.ResultSize != total {
				t.Errorf("%s/%v: CountOnly aggregate = %d, want %d", f.name, m, cagg.ResultSize, total)
			}
		}
	}
}

// TestQuerierInterfaceValue exercises the flavors through a Querier
// variable, the way backend-agnostic code holds them.
func TestQuerierInterfaceValue(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	pts := UniformPoints(rng, 800, UnitSquare())
	region := PolygonRegion(RandomQueryPolygon(rng, 8, 0.05, UnitSquare()))
	ctx := context.Background()

	var want []int64
	for _, f := range buildFlavors(t, pts) {
		var q Querier = f.q
		ids, err := q.Query(ctx, region)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		g := f.globalSet(t, ids)
		if want == nil {
			want = g
		} else if !slices.Equal(g, want) {
			t.Fatalf("%s diverges through the Querier interface", f.name)
		}
	}
}
