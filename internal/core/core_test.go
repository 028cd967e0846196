package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/hilbert"
	"repro/internal/workload"
)

func unitBounds() geom.Rect { return geom.NewRect(0, 0, 1, 1) }

// hilbertSort reorders pts in place along a Hilbert curve over bounds, the
// order a spatial store lays its records out in (neighbouring points share
// pages and cache lines).
func hilbertSort(pts []geom.Point, bounds geom.Rect) {
	out := make([]geom.Point, len(pts))
	for i, j := range hilbert.Runs(pts, bounds, 1)[0] {
		out[i] = pts[j]
	}
	copy(pts, out)
}

// query runs region with method m and no deadline.
func query(q *Engine, m Method, region Region) ([]int64, Stats, error) {
	return q.QueryRegionSpec(context.Background(), region, QuerySpec{Method: m})
}

// newUniformEngine builds an engine over n uniform points with an R-tree.
func newUniformEngine(t testing.TB, rng *rand.Rand, n int) (*Engine, []geom.Point) {
	t.Helper()
	pts := workload.UniformPoints(rng, n, unitBounds())
	data, err := NewMemoryData(pts, unitBounds())
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(NewRTreeIndex(pts, 16), data), pts
}

func TestAllMethodsAgreeOnRandomWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	eng, _ := newUniformEngine(t, rng, 5000)
	methods := []Method{Traditional, VoronoiBFS, VoronoiBFSStrict, BruteForce}
	for trial := 0; trial < 60; trial++ {
		qs := []float64{0.005, 0.01, 0.04, 0.16}[trial%4]
		area := workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: qs}, unitBounds())
		var want []int64
		for i, m := range methods {
			got, stats, err := query(eng, m, PolygonRegion(area))
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, m, err)
			}
			gotSorted := slices.Sorted(slices.Values(got))
			if i == 0 {
				want = gotSorted
			} else if !slices.Equal(gotSorted, want) {
				t.Fatalf("trial %d: %v returned %d ids, %v returned %d ids",
					trial, methods[0], len(want), m, len(gotSorted))
			}
			if stats.ResultSize != len(got) {
				t.Fatalf("stats.ResultSize %d != len %d", stats.ResultSize, len(got))
			}
			// Every result is validated, except the interior sites the
			// strict rule emits untested on a polygon.
			redundant := stats.RedundantValidations
			if m == VoronoiBFSStrict {
				if redundant < 0 || stats.Candidates-redundant > stats.ResultSize {
					t.Fatalf("redundant accounting broken: %+v", stats)
				}
			} else if redundant != stats.Candidates-stats.ResultSize {
				t.Fatalf("redundant accounting broken: %+v", stats)
			}
		}
	}
}

func TestVoronoiReducesCandidates(t *testing.T) {
	// The paper's headline: over the standard workload the Voronoi method
	// validates far fewer candidates than the traditional method.
	rng := rand.New(rand.NewSource(2))
	eng, _ := newUniformEngine(t, rng, 20000)
	var tradCand, vorCand, results int
	for trial := 0; trial < 30; trial++ {
		area := workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.01}, unitBounds())
		_, st1, err := query(eng, Traditional, PolygonRegion(area))
		if err != nil {
			t.Fatal(err)
		}
		_, st2, err := query(eng, VoronoiBFS, PolygonRegion(area))
		if err != nil {
			t.Fatal(err)
		}
		tradCand += st1.Candidates
		vorCand += st2.Candidates
		results += st1.ResultSize
	}
	if vorCand >= tradCand {
		t.Fatalf("Voronoi candidates %d >= traditional %d", vorCand, tradCand)
	}
	saved := 1 - float64(vorCand)/float64(tradCand)
	// Paper reports 35-45% savings for 10-gon queries; accept a wide band.
	if saved < 0.2 {
		t.Errorf("candidate savings only %.1f%%", saved*100)
	}
	t.Logf("candidates: traditional=%d voronoi=%d results=%d savings=%.1f%%",
		tradCand, vorCand, results, saved*100)
}

func TestEmptyQueryArea(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	eng, _ := newUniformEngine(t, rng, 50)
	// A polygon far from every point (tiny sliver in a corner gap): query
	// result may be empty; all methods must agree and not error.
	area := geom.MustPolygon([]geom.Point{
		geom.Pt(0.0001, 0.0001), geom.Pt(0.0002, 0.0001), geom.Pt(0.00015, 0.0002),
	})
	for _, m := range []Method{Traditional, VoronoiBFS, VoronoiBFSStrict, BruteForce} {
		got, _, err := query(eng, m, PolygonRegion(area))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(got) != 0 {
			t.Fatalf("%v found %d points in empty sliver", m, len(got))
		}
	}
}

func TestQueryCoveringEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	eng, pts := newUniformEngine(t, rng, 500)
	area := geom.MustPolygon([]geom.Point{
		geom.Pt(-1, -1), geom.Pt(2, -1), geom.Pt(2, 2), geom.Pt(-1, 2),
	})
	for _, m := range []Method{Traditional, VoronoiBFS, VoronoiBFSStrict, BruteForce} {
		got, _, err := query(eng, m, PolygonRegion(area))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(got) != len(pts) {
			t.Fatalf("%v found %d of %d points", m, len(got), len(pts))
		}
	}
}

func TestConcaveAndHoleQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	eng, _ := newUniformEngine(t, rng, 3000)

	// Deep L-shape.
	lshape := geom.MustPolygon([]geom.Point{
		geom.Pt(0.1, 0.1), geom.Pt(0.9, 0.1), geom.Pt(0.9, 0.25),
		geom.Pt(0.25, 0.25), geom.Pt(0.25, 0.9), geom.Pt(0.1, 0.9),
	})
	// Ring-like polygon with a hole.
	holed := geom.MustPolygon([]geom.Point{
		geom.Pt(0.2, 0.2), geom.Pt(0.8, 0.2), geom.Pt(0.8, 0.8), geom.Pt(0.2, 0.8),
	})
	if err := holed.AddHole([]geom.Point{
		geom.Pt(0.35, 0.35), geom.Pt(0.65, 0.35), geom.Pt(0.65, 0.65), geom.Pt(0.35, 0.65),
	}); err != nil {
		t.Fatal(err)
	}
	for name, area := range map[string]geom.Polygon{"lshape": lshape, "holed": holed} {
		want, _, err := query(eng, BruteForce, PolygonRegion(area))
		if err != nil {
			t.Fatal(err)
		}
		wantSorted := slices.Sorted(slices.Values(want))
		for _, m := range []Method{Traditional, VoronoiBFS, VoronoiBFSStrict} {
			got, _, err := query(eng, m, PolygonRegion(area))
			if err != nil {
				t.Fatalf("%s/%v: %v", name, m, err)
			}
			if !slices.Equal(slices.Sorted(slices.Values(got)), wantSorted) {
				t.Fatalf("%s/%v: got %d ids, oracle %d", name, m, len(got), len(want))
			}
		}
	}
}

// TestAllIndexesAgree runs one query through the two seed indexes that
// ship (see shippedEngines) and checks both methods return the same points
// from both.
func TestAllIndexesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := workload.UniformPoints(rng, 2000, unitBounds())
	region := PolygonRegion(workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.05}, unitBounds()))
	var want []int64
	for _, se := range shippedEngines(t, pts) {
		for _, m := range []Method{Traditional, VoronoiBFS} {
			ids, _, err := query(se.eng, m, region)
			if err != nil {
				t.Fatalf("%s/%v: %v", se.name, m, err)
			}
			got := se.pointIDs(ids)
			if want == nil {
				want = got
			} else if !slices.Equal(got, want) {
				t.Fatalf("%s/%v disagrees: %d vs %d ids", se.name, m, len(got), len(want))
			}
		}
	}
}

func TestStoreDataCountsIO(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := workload.UniformPoints(rng, 3000, unitBounds())
	data, err := NewStoreData(pts, unitBounds(), StoreConfig{
		PageSize:     1024,
		PoolPages:    8,
		PayloadBytes: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(NewRTreeIndex(pts, 16), data)
	area := workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.02}, unitBounds())

	data.Store().DropCache()
	_, stTrad, err := query(eng, Traditional, PolygonRegion(area))
	if err != nil {
		t.Fatal(err)
	}
	ioTrad := data.IOStats()

	data.Store().DropCache()
	_, stVor, err := query(eng, VoronoiBFS, PolygonRegion(area))
	if err != nil {
		t.Fatal(err)
	}
	ioVor := data.IOStats()

	if stTrad.RecordsLoaded != stTrad.Candidates {
		t.Errorf("traditional: loads %d != candidates %d", stTrad.RecordsLoaded, stTrad.Candidates)
	}
	if stVor.RecordsLoaded != stVor.Candidates {
		t.Errorf("voronoi: loads %d != candidates %d", stVor.RecordsLoaded, stVor.Candidates)
	}
	if ioTrad.PageReads == 0 || ioVor.PageReads == 0 {
		t.Errorf("expected page reads, got trad=%+v vor=%+v", ioTrad, ioVor)
	}
	// Both methods return the same result over store-backed data too.
	a, _, err := query(eng, Traditional, PolygonRegion(area))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := query(eng, VoronoiBFS, PolygonRegion(area))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b))) {
		t.Error("methods disagree over store-backed data")
	}
}

// TestStorePlacementIgnoresArrivalOrder builds one point set into a store
// twice, Hilbert-sorted and shuffled: records are placed by position, so
// every id still loads its own input point, and the same regions cost the
// same page reads whichever order the points arrived in.
func TestStorePlacementIgnoresArrivalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sorted := workload.UniformPoints(rng, 20000, unitBounds())
	hilbertSort(sorted, unitBounds())
	shuffled := slices.Clone(sorted)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	regions := make([]Region, 32)
	for i := range regions {
		regions[i] = PolygonRegion(workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.01}, unitBounds()))
	}

	var reads [2]float64
	for li, pts := range [][]geom.Point{sorted, shuffled} {
		data, err := NewStoreData(pts, unitBounds(), StoreConfig{PageSize: 4096, PoolPages: 64, PayloadBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		for id, want := range pts {
			if got, err := data.store.GetPosition(int64(id), nil, 0, nil); err != nil || got != want {
				t.Fatalf("layout %d: record %d holds %v, %v; want %v", li, id, got, err, want)
			}
		}
		eng := NewEngine(NewRTreeIndex(pts, 16), data)
		for _, region := range regions {
			data.Store().DropCache() // and zeroes the counters
			if _, _, err := query(eng, VoronoiBFS, region); err != nil {
				t.Fatal(err)
			}
			reads[li] += float64(data.IOStats().PageReads) / float64(len(regions))
		}
	}
	if math.Abs(reads[0]-reads[1]) > 0.02*reads[0] {
		t.Errorf("page reads per query: %.2f Hilbert-sorted, %.2f shuffled; want within 2 %%", reads[0], reads[1])
	}
}

func TestDuplicatePointsRejected(t *testing.T) {
	pts := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.5, 0.5), geom.Pt(0.2, 0.2)}
	if _, err := NewMemoryData(pts, unitBounds()); !errors.Is(err, ErrDuplicatePoints) {
		t.Errorf("err = %v, want ErrDuplicatePoints", err)
	}
	if _, err := NewStoreData(pts, unitBounds(), StoreConfig{}); !errors.Is(err, ErrDuplicatePoints) {
		t.Errorf("store err = %v, want ErrDuplicatePoints", err)
	}
}

// TestNegativePayloadRefused: a negative StoreConfig.PayloadBytes is an
// error naming the field, not a makeslice panic.
func TestNegativePayloadRefused(t *testing.T) {
	pts := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.2, 0.2), geom.Pt(0.7, 0.3)}
	if _, err := NewStoreData(pts, unitBounds(), StoreConfig{PayloadBytes: -1}); err == nil || !strings.Contains(err.Error(), "PayloadBytes") {
		t.Errorf("err = %v, want one naming PayloadBytes", err)
	}
}

func TestUnknownMethod(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	eng, _ := newUniformEngine(t, rng, 10)
	area := geom.MustPolygon([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)})
	if _, _, err := query(eng, Method(99), PolygonRegion(area)); err == nil {
		t.Error("unknown method should error")
	}
}

func TestMethodString(t *testing.T) {
	cases := map[Method]string{
		Traditional:      "traditional",
		VoronoiBFS:       "voronoi",
		VoronoiBFSStrict: "voronoi-strict",
		BruteForce:       "brute-force",
		Method(42):       "method(42)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestEngineReusableAcrossManyQueries(t *testing.T) {
	// The generation-stamped visited set must stay correct across many
	// consecutive queries.
	rng := rand.New(rand.NewSource(10))
	eng, _ := newUniformEngine(t, rng, 1000)
	for trial := 0; trial < 300; trial++ {
		area := workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 6, QuerySize: 0.03}, unitBounds())
		a, _, err := query(eng, BruteForce, PolygonRegion(area))
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := query(eng, VoronoiBFS, PolygonRegion(area))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b))) {
			t.Fatalf("trial %d: voronoi diverged from oracle", trial)
		}
	}
}

func TestGenerationWraparound(t *testing.T) {
	// Scratch-level: crossing the uint32 generation boundary must clear the
	// stale stamps instead of treating them as current.
	s := &queryScratch{visited: make([]uint32, 200)}
	s.visited[7] = 1          // stale stamp that collides with gen == 1 after wrap
	s.visited[9] = ^uint32(0) // stamp of the last generation before the wrap
	s.gen = ^uint32(0) - 1    // two generations away from wrapping
	for i := 0; i < 4; i++ {  // crosses the wraparound
		s.nextGen()
		if s.gen == 0 {
			t.Fatalf("generation %d: gen 0 is what a cleared table holds", i)
		}
		if s.seen(7) || (i > 0 && s.seen(9)) {
			t.Fatalf("generation %d: stale stamp read as visited", i)
		}
		if !s.mark(5) {
			t.Fatalf("generation %d: first mark not fresh", i)
		}
		if s.mark(5) {
			t.Fatalf("generation %d: second mark not deduplicated", i)
		}
	}

	// Engine queries only ever reach a scratch through acquireScratch,
	// which advances the generation exactly as above; query correctness
	// across the wrap is pinned by TestQueriesAcrossStampWraps.
}

// TestQueriesAcrossStampWraps runs more than 2 × 255 queries against brute
// force on a static engine and on a dynamic engine that inserts between
// queries, so its id space outgrows a pooled table and a scratch is grown
// (copying stale stamps) along the way. Each engine's pool is swapped for
// one whose scratches start a few generations short of the uint32 wrap,
// with tables full of stamps from long-gone generations — the low ones the
// generations after the wrap reuse, which only the wrap's clear keeps from
// reading as visited. The test fails unless some scratch ends up past the
// wrap: a pool that dropped every scratch before it would make it vacuous.
func TestQueriesAcrossStampWraps(t *testing.T) {
	const queries = 2*255 + 40
	nearWrap := func(ids int) (*sync.Pool, func() bool) {
		var made []*queryScratch
		pool := &sync.Pool{New: func() any {
			s := &queryScratch{visited: make([]uint32, ids), gen: ^uint32(0) - uint32(1+len(made)%8)}
			for i := range s.visited {
				s.visited[i] = uint32(1 + i%997)
			}
			made = append(made, s)
			return s
		}}
		return pool, func() bool {
			return slices.ContainsFunc(made, func(s *queryScratch) bool { return s.gen < 1<<20 })
		}
	}
	rng := rand.New(rand.NewSource(14))
	static, _ := newUniformEngine(t, rng, 3000)
	var staticWrapped, dynWrapped func() bool
	static.scratch, staticWrapped = nearWrap(3000)
	dyn := NewDynamicEngine(unitBounds())
	dyn.scratch, dynWrapped = nearWrap(1000) // outgrown after ≈ 170 queries
	for dyn.Len() < 500 {
		if _, _, err := dyn.Insert(geom.Pt(rng.Float64(), rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		eng     func() *Engine
		wrapped func() bool
	}{
		{"static", func() *Engine { return static }, staticWrapped},
		{"dynamic", func() *Engine {
			for i := 0; i < 3; i++ {
				if _, _, err := dyn.Insert(geom.Pt(rng.Float64(), rng.Float64())); err != nil {
					t.Fatal(err)
				}
			}
			return dyn.Snapshot()
		}, dynWrapped},
	} {
		for i := 0; i < queries; i++ {
			eng := tc.eng()
			m := []Method{VoronoiBFS, VoronoiBFSStrict}[i%2]
			region := PolygonRegion(workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.02}, unitBounds()))
			want, _, err := query(eng, BruteForce, region)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := query(eng, m, region)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want))) {
				t.Fatalf("%s, query %d, %v: %d ids, brute force %d", tc.name, i, m, len(got), len(want))
			}
		}
		if !tc.wrapped() {
			t.Errorf("%s: no scratch crossed the generation wrap; the test exercised nothing", tc.name)
		}
	}
}

// customRegion hides every optional interface of the region it wraps, as a
// caller's own Region type would.
type customRegion struct{ Region }

func TestStatsPlausibility(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	eng, _ := newUniformEngine(t, rng, 10000)
	area := workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.02}, unitBounds())

	_, st, err := query(eng, VoronoiBFS, PolygonRegion(area))
	if err != nil {
		t.Fatal(err)
	}
	if st.Candidates < st.ResultSize {
		t.Errorf("candidates %d < result %d", st.Candidates, st.ResultSize)
	}
	if st.SegmentTests == 0 {
		t.Error("expected segment tests for boundary points")
	}
	if st.CellTests != 0 {
		t.Error("published rule should not perform cell tests")
	}
	if st.IndexNodesVisited != 0 {
		t.Errorf("the seed walk touched %d index nodes", st.IndexNodesVisited)
	}

	// The strict rule on a polygon traces its boundary and validates only
	// the shell: no cell tests, and fewer candidates than the cell-test
	// expansion the same polygon gets as a custom Region. Custom regions
	// keep the cell tests.
	_, st2, err := query(eng, VoronoiBFSStrict, PolygonRegion(area))
	if err != nil {
		t.Fatal(err)
	}
	if st2.CellTests != 0 || st2.SegmentTests != 0 {
		t.Errorf("strict rule on a polygon ran %d cell and %d segment tests", st2.CellTests, st2.SegmentTests)
	}
	if st2.IndexNodesVisited != 0 {
		t.Errorf("the strict rule's seed walk touched %d index nodes", st2.IndexNodesVisited)
	}
	if st2.RecordsLoaded != st2.Candidates {
		t.Errorf("strict rule loaded %d records for %d validations", st2.RecordsLoaded, st2.Candidates)
	}
	// The shell grows with the perimeter and the interior with the area, so
	// the saving shows on a region of about a thousand results.
	large := PolygonRegion(workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.1}, unitBounds()))
	_, stTraced, err := query(eng, VoronoiBFSStrict, large)
	if err != nil {
		t.Fatal(err)
	}
	_, stCustom, err := query(eng, VoronoiBFSStrict, customRegion{large})
	if err != nil {
		t.Fatal(err)
	}
	if stCustom.CellTests == 0 {
		t.Error("strict rule on a custom region should perform cell tests")
	}
	if stTraced.Candidates >= stCustom.Candidates || stCustom.ResultSize != stTraced.ResultSize {
		t.Errorf("traced strict: %d candidates for %d results; cell tests: %d for %d",
			stTraced.Candidates, stTraced.ResultSize, stCustom.Candidates, stCustom.ResultSize)
	}
	// A disk is convex: the strict rule runs the segment rule on it, and
	// costs what the published rule costs.
	circle := CircleRegion(geom.Circle{Center: area.InteriorPoint(), R: 0.05})
	_, stCircle, err := query(eng, VoronoiBFSStrict, circle)
	if err != nil {
		t.Fatal(err)
	}
	_, stPublished, err := query(eng, VoronoiBFS, circle)
	if err != nil {
		t.Fatal(err)
	}
	if stCircle.CellTests != 0 || stCircle.SegmentTests == 0 {
		t.Errorf("strict rule on a circle ran %d cell and %d segment tests", stCircle.CellTests, stCircle.SegmentTests)
	}
	if stCircle != stPublished {
		t.Errorf("strict rule on a circle: %+v, published rule %+v", stCircle, stPublished)
	}

	_, st3, err := query(eng, Traditional, PolygonRegion(area))
	if err != nil {
		t.Fatal(err)
	}
	if st3.IndexNodesVisited == 0 {
		t.Error("the window query should touch index nodes")
	}
}

func TestEmptyDataRejected(t *testing.T) {
	data, err := NewMemoryData([]geom.Point{geom.Pt(0.5, 0.5)}, unitBounds())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(NewRTreeIndex([]geom.Point{geom.Pt(0.5, 0.5)}, 16), data)
	area := geom.MustPolygon([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)})
	if _, _, err := query(eng, VoronoiBFS, PolygonRegion(area)); err != nil {
		t.Errorf("single point dataset should work: %v", err)
	}
}

func BenchmarkTraditionalQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	eng, _ := newUniformEngine(b, rng, 100_000)
	areas := make([]geom.Polygon, 64)
	for i := range areas {
		areas[i] = workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.01}, unitBounds())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := query(eng, Traditional, PolygonRegion(areas[i%len(areas)])); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVoronoiQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	eng, _ := newUniformEngine(b, rng, 100_000)
	areas := make([]geom.Polygon, 64)
	for i := range areas {
		areas[i] = workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.01}, unitBounds())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := query(eng, VoronoiBFS, PolygonRegion(areas[i%len(areas)])); err != nil {
			b.Fatal(err)
		}
	}
}
