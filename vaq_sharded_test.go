package vaq

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
)

var shardedTestCounts = []int{1, 2, 7, 16}

func shardedWorkloads(n int) map[string][]Point {
	return map[string][]Point{
		"uniform":   UniformPoints(rand.New(rand.NewSource(61)), n, UnitSquare()),
		"clustered": ClusteredPoints(rand.New(rand.NewSource(62)), n, 6, 0.04, UnitSquare()),
	}
}

// TestShardedEngineConformance runs the public acceptance grid: every
// query method × shard counts 1/2/7/16 × uniform and clustered workloads
// must return exactly the single-engine oracle's sorted id set, through
// every public entry point.
func TestShardedEngineConformance(t *testing.T) {
	const n = 3000
	for wname, pts := range shardedWorkloads(n) {
		single, err := NewEngine(pts, UnitSquare())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(63))
		areas := make([]Polygon, 9)
		for i := range areas {
			areas[i] = RandomQueryPolygon(rng, 10, []float64{0.005, 0.02, 0.08}[i%3], UnitSquare())
		}
		circles := make([]Circle, 3)
		for i := range circles {
			circles[i] = NewCircle(Pt(0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64()), 0.02+0.08*rng.Float64())
		}

		for _, shards := range shardedTestCounts {
			sharded, err := NewShardedEngine(pts, UnitSquare(), WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			if sharded.NumShards() != shards || sharded.Len() != n {
				t.Fatalf("%s shards=%d: NumShards=%d Len=%d", wname, shards, sharded.NumShards(), sharded.Len())
			}
			name := fmt.Sprintf("%s/shards=%d", wname, shards)

			for _, m := range []Method{Traditional, VoronoiBFS, VoronoiBFSStrict, BruteForce} {
				for ai, area := range areas {
					want, _, err := queryWith(single, m, area)
					if err != nil {
						t.Fatalf("%s %v: single: %v", name, m, err)
					}
					got, _, err := queryWith(sharded, m, area)
					if err != nil {
						t.Fatalf("%s %v: sharded: %v", name, m, err)
					}
					if !slices.Equal(got, sorted(want)) {
						t.Errorf("%s %v area %d: %d ids, single %d", name, m, ai, len(got), len(want))
					}
					cnt, _, err := countOf(sharded, m, area)
					if err != nil {
						t.Fatalf("%s %v: count: %v", name, m, err)
					}
					if cnt != len(want) {
						t.Errorf("%s %v area %d: Count=%d want %d", name, m, ai, cnt, len(want))
					}
				}
				for ci, c := range circles {
					want, _, err := queryCircle(single, m, c)
					if err != nil {
						t.Fatalf("%s %v: single circle: %v", name, m, err)
					}
					got, _, err := queryCircle(sharded, m, c)
					if err != nil {
						t.Fatalf("%s %v: sharded circle: %v", name, m, err)
					}
					if !slices.Equal(got, sorted(want)) {
						t.Errorf("%s %v circle %d diverged", name, m, ci)
					}
				}
			}

			// Default-method Query plus the batched entry points.
			for ai, area := range areas {
				want, _, err := queryWith(single, VoronoiBFS, area)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := queryWith(sharded, VoronoiBFS, area)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, sorted(want)) {
					t.Errorf("%s: Query area %d diverged", name, ai)
				}
			}
			wantBatch, _, err := queryBatch(single, VoronoiBFS, areas)
			if err != nil {
				t.Fatal(err)
			}
			gotBatch, _, err := queryBatch(sharded, VoronoiBFS, areas)
			if err != nil {
				t.Fatal(err)
			}
			for i := range areas {
				if !slices.Equal(gotBatch[i], sorted(wantBatch[i])) {
					t.Errorf("%s: QueryBatch %d diverged", name, i)
				}
			}
			regions := mixedBatch(rng, 18)
			wantReg, _, err := queryRegions(single, VoronoiBFS, regions)
			if err != nil {
				t.Fatal(err)
			}
			gotReg, _, err := queryRegions(sharded, VoronoiBFS, regions)
			if err != nil {
				t.Fatal(err)
			}
			for i := range regions {
				if !slices.Equal(gotReg[i], sorted(wantReg[i])) {
					t.Errorf("%s: QueryRegions %d diverged", name, i)
				}
			}
		}
	}
}

// TestOneShardIsTheStaticEngine pins the pruning policy NewEngine shares
// with a one-shard NewShardedEngine: the two answer every method with equal
// ids and Stats — polygons and circles over the points, and a region in
// universe space no point's bounding rectangle reaches, which both answer
// empty with zero Stats. An unknown method fails on every region, that one
// included, with the same error on both.
func TestOneShardIsTheStaticEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	pts := UniformPoints(rng, 2000, NewRect(0, 0, 0.7, 0.7))
	static, err := NewEngine(pts, UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewShardedEngine(pts, UnitSquare(), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if static.DataBounds() != one.DataBounds() || static.DataBounds() != geom.RectFromPoints(pts...) {
		t.Fatalf("DataBounds %v and %v, want the points' MBR %v", static.DataBounds(), one.DataBounds(), geom.RectFromPoints(pts...))
	}
	empty := PolygonRegion(MustPolygon([]Point{Pt(0.8, 0.75), Pt(0.95, 0.8), Pt(0.85, 0.95)}))
	regions := []Region{
		PolygonRegion(RandomQueryPolygon(rng, 10, 0.02, NewRect(0, 0, 0.7, 0.7))),
		PolygonRegion(RandomQueryPolygon(rng, 10, 0.002, NewRect(0, 0, 0.7, 0.7))),
		NewCircle(Pt(0.35, 0.35), 0.1),
		empty,
	}
	ctx := context.Background()
	for _, m := range []Method{Traditional, VoronoiBFS, VoronoiBFSStrict, BruteForce, Method(99)} {
		for ri, r := range regions {
			var sst, ost Stats
			sids, serr := static.Query(ctx, r, UsingMethod(m), WithStatsInto(&sst))
			oids, oerr := one.Query(ctx, r, UsingMethod(m), WithStatsInto(&ost))
			if !slices.Equal(sids, oids) || sst != ost || fmt.Sprint(serr) != fmt.Sprint(oerr) {
				t.Errorf("%v region %d: static %d ids %+v %v; one shard %d ids %+v %v", m, ri, len(sids), sst, serr, len(oids), ost, oerr)
			}
			if m == Method(99) {
				const want = "core: unknown method 99"
				if serr == nil || serr.Error() != want || sst != (Stats{}) {
					t.Errorf("unknown method on region %d: %v, %+v; want %q and zero Stats", ri, serr, sst, want)
				}
				_, aerr := static.QueryAll(ctx, []Region{empty, r}, UsingMethod(m))
				eerr := static.Each(ctx, r, func(int64, Point) bool { return true }, UsingMethod(m))
				if fmt.Sprint(aerr) != want || fmt.Sprint(eerr) != want {
					t.Errorf("unknown method on region %d: QueryAll %v, Each %v; want %q", ri, aerr, eerr, want)
				}
				continue
			}
			if r == empty && (len(sids) != 0 || sst != (Stats{}) || serr != nil) {
				t.Errorf("%v: the region outside the points' MBR answered %d ids, %+v, %v; want none, zero Stats, no error", m, len(sids), sst, serr)
			}
		}
	}
}

// TestShardedEngineStoreBacked pins the sharded + WithStore combination:
// every shard owns a private store, results stay oracle-exact, and the
// summed IO counters are live.
func TestShardedEngineStoreBacked(t *testing.T) {
	const n = 2000
	pts := UniformPoints(rand.New(rand.NewSource(64)), n, UnitSquare())
	single, err := NewEngine(pts, UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedEngine(pts, UnitSquare(),
		WithShards(7),
		WithStore(StoreConfig{PageSize: 1024, PoolPages: 8, PayloadBytes: 32}),
		WithBufferPoolShards(4)) // every shard's private pool gets 4 lock shards
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := sharded.IOStats(); !ok {
		t.Fatal("store-backed sharded engine reports no IO stats")
	}
	sharded.ResetIOStats()

	rng := rand.New(rand.NewSource(65))
	for rep := 0; rep < 8; rep++ {
		area := RandomQueryPolygon(rng, 10, 0.03, UnitSquare())
		want, _, err := queryWith(single, VoronoiBFS, area)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := queryWith(sharded, VoronoiBFS, area)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, sorted(want)) {
			t.Fatalf("rep %d diverged", rep)
		}
		if len(want) > 0 && st.RecordsLoaded == 0 {
			t.Errorf("rep %d: no record loads recorded", rep)
		}
	}
	reads, hits, ok := sharded.IOStats()
	if !ok || reads+hits == 0 {
		t.Errorf("IO counters dead: reads=%d hits=%d ok=%v", reads, hits, ok)
	}
}

// TestShardedGlobalIDStability pins that the same query returns the
// identical id slice (values AND order) at every shard count, and that
// ids index the original points slice.
func TestShardedGlobalIDStability(t *testing.T) {
	const n = 2500
	pts := UniformPoints(rand.New(rand.NewSource(68)), n, UnitSquare())
	rng := rand.New(rand.NewSource(69))
	area := RandomQueryPolygon(rng, 10, 0.06, UnitSquare())

	var first []int64
	for _, shards := range shardedTestCounts {
		sharded, err := NewShardedEngine(pts, UnitSquare(), WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := queryWith(sharded, VoronoiBFS, area)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got
		} else if !slices.Equal(got, first) {
			t.Errorf("shards=%d: ids differ from shards=%d", shards, shardedTestCounts[0])
		}
		err = sharded.Each(context.Background(), PolygonRegion(area), func(id int64, p Point) bool {
			if p != pts[id] {
				t.Errorf("shards=%d: Each yields id %d at %v, input slice has %v", shards, id, p, pts[id])
				return false
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentShardedEngine hammers one sharded, store-backed engine
// from several goroutines. Run with -race.
func TestConcurrentShardedEngine(t *testing.T) {
	const n = 2000
	pts := UniformPoints(rand.New(rand.NewSource(70)), n, UnitSquare())
	sharded, err := NewShardedEngine(pts, UnitSquare(),
		WithShards(7),
		WithStore(StoreConfig{PageSize: 1024, PoolPages: 4, PayloadBytes: 16}))
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewEngine(pts, UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	areas := make([]Polygon, 6)
	oracle := make([][]int64, len(areas))
	for i := range areas {
		areas[i] = RandomQueryPolygon(rng, 10, 0.03, UnitSquare())
		ids, _, err := queryWith(single, BruteForce, areas[i])
		if err != nil {
			t.Fatal(err)
		}
		oracle[i] = sorted(ids)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				i := (worker + rep) % len(areas)
				if rep%2 == 0 {
					ids, _, err := queryWith(sharded, VoronoiBFS, areas[i])
					if err != nil {
						errs <- err
						return
					}
					if !slices.Equal(ids, oracle[i]) {
						errs <- fmt.Errorf("worker %d rep %d: query diverged", worker, rep)
						return
					}
				} else {
					out, _, err := queryBatch(sharded, VoronoiBFS, areas[i:i+1])
					if err != nil {
						errs <- err
						return
					}
					if !slices.Equal(out[0], oracle[i]) {
						errs <- fmt.Errorf("worker %d rep %d: batch diverged", worker, rep)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
