package vaq

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/geom"
)

// sorted returns a sorted copy of ids, for comparing id sets with
// slices.Equal.
func sorted(ids []int64) []int64 { return slices.Sorted(slices.Values(ids)) }

func TestQuickstartFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := UniformPoints(rng, 5000, UnitSquare())
	eng, err := NewEngine(pts, UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	if eng.Len() != 5000 {
		t.Errorf("Len = %d", eng.Len())
	}
	if eng.Bounds() != UnitSquare() {
		t.Errorf("Bounds = %v", eng.Bounds())
	}
	area := RandomQueryPolygon(rng, 10, 0.02, UnitSquare())
	var stats Stats
	ids, err := eng.Query(context.Background(), PolygonRegion(area), WithStatsInto(&stats))
	if err != nil {
		t.Fatal(err)
	}
	// The default method is VoronoiBFS: the published rule's segment
	// tests, and no index node.
	if stats.SegmentTests == 0 || stats.IndexNodesVisited != 0 {
		t.Errorf("default method left stats %+v", stats)
	}
	// Every returned point is inside; every omitted point outside.
	inIDs := make(map[int64]bool)
	for _, id := range ids {
		inIDs[id] = true
		if !area.ContainsPoint(pts[id]) {
			t.Errorf("returned id %d outside area", id)
		}
	}
	for i, p := range pts {
		if area.ContainsPoint(p) && !inIDs[int64(i)] {
			t.Errorf("point %d inside area but missing from result", i)
		}
	}
}

func TestMethodsAgreeViaPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := UniformPoints(rng, 3000, UnitSquare())
	eng, err := NewEngine(pts, UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	area := RandomQueryPolygon(rng, 10, 0.05, UnitSquare())
	var want []int64
	for i, m := range []Method{Traditional, VoronoiBFS, VoronoiBFSStrict, BruteForce} {
		got, _, err := queryWith(eng, m, area)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		g := sorted(got)
		if i == 0 {
			want = g
		} else if !slices.Equal(g, want) {
			t.Fatalf("%v disagrees with Traditional", m)
		}
	}
}

func TestWithStoreIOVisible(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := UniformPoints(rng, 2000, UnitSquare())
	eng, err := NewEngine(pts, UnitSquare(), WithStore(StoreConfig{
		PageSize:     1024,
		PoolPages:    8,
		PayloadBytes: 32,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := eng.IOStats(); !ok {
		t.Fatal("IOStats should be available with WithStore")
	}
	area := RandomQueryPolygon(rng, 10, 0.05, UnitSquare())
	if _, err := eng.Query(context.Background(), PolygonRegion(area)); err != nil {
		t.Fatal(err)
	}
	reads, _, _ := eng.IOStats()
	if reads == 0 {
		t.Error("expected page reads after a query")
	}
	eng.ResetIOStats()
	if reads2, _, _ := eng.IOStats(); reads2 != 0 {
		t.Error("ResetIOStats did not zero counters")
	}
	// Engines without a store report !ok and tolerate Reset.
	eng2, err := NewEngine(pts, UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := eng2.IOStats(); ok {
		t.Error("IOStats should be unavailable without WithStore")
	}
	eng2.ResetIOStats() // must not panic
}

func TestDuplicatePointsError(t *testing.T) {
	pts := []Point{Pt(0.5, 0.5), Pt(0.5, 0.5), Pt(0.1, 0.1)}
	if _, err := NewEngine(pts, UnitSquare()); err == nil {
		t.Error("duplicate points should be rejected")
	}
}

// TestConstructorsRefuseWhatTheyDocument: a site outside bounds, or with a
// NaN or infinite coordinate, and a polygon vertex that is not finite are
// refused with their sentinel before anything is built — no panic in the
// exact predicates, no unbounded allocation — by every constructor, and by
// DynamicEngine.Insert, which leaves the epoch where it was.
func TestConstructorsRefuseWhatTheyDocument(t *testing.T) {
	bad := map[string]float64{"outside": 1.5, "NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)}
	pts := UniformPoints(rand.New(rand.NewSource(6)), 500, UnitSquare())
	withSite := func(p Point) []Point { return slices.Insert(slices.Clone(pts), 250, p) }

	cases := map[string]struct {
		build func(v float64) error
		want  error
	}{
		"NewEngine": {func(v float64) error {
			_, err := NewEngine(withSite(Pt(v, 0.5)), UnitSquare())
			return err
		}, ErrOutsideUniverse},
		"NewShardedEngine": {func(v float64) error {
			_, err := NewShardedEngine(withSite(Pt(0.5, v)), UnitSquare(), WithShards(4))
			return err
		}, ErrOutsideUniverse},
		"DynamicEngine.Insert": {func(v float64) error {
			dyn := NewDynamicEngine(UnitSquare())
			for _, p := range pts[:50] {
				if _, _, err := dyn.Insert(p); err != nil {
					return err
				}
			}
			var err error
			for _, p := range []Point{Pt(v, 0.5), Pt(0.5, v)} {
				if _, _, err = dyn.Insert(p); !errors.Is(err, ErrOutsideUniverse) {
					return err
				}
				if dyn.Epoch() != 50 {
					return fmt.Errorf("epoch %d after refusing %v, want 50", dyn.Epoch(), p)
				}
			}
			return err
		}, ErrOutsideUniverse},
		"NewPolygon": {func(v float64) error {
			_, err := NewPolygon([]Point{Pt(v, 0.1), Pt(0.5, 0.2), Pt(0.3, 0.6)})
			return err
		}, geom.ErrNonFinite},
		"AddHole": {func(v float64) error {
			pg := MustPolygon([]Point{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)})
			return pg.AddHole([]Point{Pt(0.4, 0.4), Pt(0.6, v), Pt(0.5, 0.6)})
		}, geom.ErrNonFinite},
	}
	for name, tc := range cases {
		for label, v := range bad {
			if tc.want == geom.ErrNonFinite && label == "outside" {
				continue // a polygon has no universe
			}
			done := make(chan error, 1)
			go func() { done <- tc.build(v) }()
			select {
			case err := <-done:
				if !errors.Is(err, tc.want) {
					t.Errorf("%s, %s coordinate: err = %v, want %v", name, label, err, tc.want)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("%s, %s coordinate: still building after 30 s", name, label)
			}
		}
	}
}

func TestClusteredWorkloadEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := ClusteredPoints(rng, 3000, 6, 0.03, UnitSquare())
	eng, err := NewEngine(pts, UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	area := RandomQueryPolygon(rng, 10, 0.04, UnitSquare())
	a, _, err := queryWith(eng, Traditional, area)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := queryWith(eng, VoronoiBFS, area)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sorted(a), sorted(b)) {
		t.Error("methods disagree on clustered data")
	}
}

func TestDynamicEnginePublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	eng := NewDynamicEngine(UnitSquare())
	if eng.Bounds() != UnitSquare() {
		t.Error("Bounds mismatch")
	}
	pos := make(map[int64]Point) // id -> the point Insert returned it for
	for i := 0; i < 1000; i++ {
		p := Pt(rng.Float64(), rng.Float64())
		id, ins, err := eng.Insert(p)
		if err != nil || !ins {
			t.Fatalf("insert %d: ins=%v err=%v", i, ins, err)
		}
		pos[id] = p
	}
	if eng.Len() != 1000 {
		t.Fatalf("Len = %d", eng.Len())
	}
	area := RandomQueryPolygon(rng, 10, 0.05, UnitSquare())
	a, err := eng.Query(context.Background(), PolygonRegion(area))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := queryWith(eng, BruteForce, area)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sorted(a), sorted(b)) {
		t.Error("dynamic query diverges from oracle")
	}
	// Result points are really inside.
	for _, id := range a {
		if p, ok := pos[id]; !ok || !area.ContainsPoint(p) {
			t.Errorf("result %d outside area", id)
		}
	}
}

func TestCountAndBatchPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := UniformPoints(rng, 800, UnitSquare())
	eng, err := NewEngine(pts, UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	areas := []Polygon{
		RandomQueryPolygon(rng, 10, 0.02, UnitSquare()),
		RandomQueryPolygon(rng, 10, 0.08, UnitSquare()),
	}
	n, _, err := countOf(eng, VoronoiBFS, areas[0])
	if err != nil {
		t.Fatal(err)
	}
	ids, _, err := queryWith(eng, VoronoiBFS, areas[0])
	if err != nil {
		t.Fatal(err)
	}
	if n != len(ids) {
		t.Errorf("Count = %d, Query len = %d", n, len(ids))
	}
	results, agg, err := queryBatch(eng, Traditional, areas)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || agg.ResultSize != len(results[0])+len(results[1]) {
		t.Errorf("batch aggregate broken: %d results, agg %d", len(results), agg.ResultSize)
	}
}

func TestQueryCirclePublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := UniformPoints(rng, 2000, UnitSquare())
	eng, err := NewEngine(pts, UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCircle(Pt(0.5, 0.5), 0.15)
	var want []int64
	for i, p := range pts {
		if c.ContainsPoint(p) {
			want = append(want, int64(i))
		}
	}
	for _, m := range []Method{Traditional, VoronoiBFS, BruteForce} {
		got, _, err := queryCircle(eng, m, c)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !slices.Equal(sorted(got), want) {
			t.Fatalf("%v circle query: %d results, want %d", m, len(got), len(want))
		}
	}
}
