package delaunay

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/robust"
)

func uniformPoints(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	return pts
}

// numEdges counts the undirected Delaunay edges from the rings, where every
// edge appears once in each endpoint's.
func numEdges(tr *Triangulation) int {
	entries := 0
	for i := range tr.NumSites() {
		entries += len(tr.Neighbors(i))
	}
	return entries / 2
}

// bulk is Bulk fenced by the points' bounding rectangle, in slice order, as
// Build runs it.
func bulk(t *testing.T, pts []geom.Point) (sites []geom.Point, off, nbrs []int32) {
	t.Helper()
	sites, off, nbrs, err := Bulk(pts, geom.RectFromPoints(pts...), nil)
	if err != nil {
		t.Fatal(err)
	}
	return sites, off, nbrs
}

// fencedTriangles lists the bounded faces of a fenced triangulation in CSR
// form, Bulk's, each once, from its smallest corner v: every two neighbors a
// and b consecutive in v's ring. The outer face, the one whose corners are
// all fence sites (ids n and up), is left out.
func fencedTriangles(n int, off, nbrs []int32) [][3]int32 {
	var tris [][3]int32
	for v := range len(off) - 1 {
		ring := nbrs[off[v]:off[v+1]]
		for j, a := range ring {
			b := ring[(j+1)%len(ring)]
			if int32(v) < a && int32(v) < b && (v < n || int(a) < n || int(b) < n) {
				tris = append(tris, [3]int32{int32(v), a, b})
			}
		}
	}
	return tris
}

// userTriangles are the fenced triangles with no fence corner.
func userTriangles(n int, off, nbrs []int32) [][3]int32 {
	var tris [][3]int32
	for _, tri := range fencedTriangles(n, off, nbrs) {
		if max(tri[0], tri[1], tri[2]) < int32(n) {
			tris = append(tris, tri)
		}
	}
	return tris
}

// checkFenced holds Bulk's output over n = len(sites)−3 user sites to the
// definition of a Delaunay triangulation whose outer face is the fence
// triangle, by scans, not by the builder's own bookkeeping: every ring names
// other sites, once each, symmetrically; there are 3(n+3)−6 edges; the
// bounded faces are 2(n+3)−5 distinct counterclockwise triangles; and, when
// exhaustive, no site — fence sites included — lies strictly inside the
// circumcircle of any of them.
func checkFenced(sites []geom.Point, off, nbrs []int32, exhaustive bool) error {
	v3, n := len(sites), len(sites)-FirstSiteID
	if len(off) != v3+1 || off[0] != 0 || int(off[v3]) != len(nbrs) {
		return fmt.Errorf("%d offsets for %d sites over %d neighbors", len(off), v3, len(nbrs))
	}
	for v := range v3 {
		ring := nbrs[off[v]:off[v+1]]
		for k, nb := range ring {
			switch {
			case nb < 0 || int(nb) >= v3 || int(nb) == v || slices.Contains(ring[:k], nb):
				return fmt.Errorf("ring of %d is %v", v, ring)
			case !slices.Contains(nbrs[off[nb]:off[nb+1]], int32(v)):
				return fmt.Errorf("%d is on the ring of %d, not the other way", nb, v)
			}
		}
	}
	if got, want := len(nbrs)/2, 3*v3-6; got != want {
		return fmt.Errorf("%d edges over %d sites, want %d", got, v3, want)
	}
	tris := fencedTriangles(n, off, nbrs)
	if got, want := len(tris), 2*v3-5; got != want {
		return fmt.Errorf("%d bounded faces over %d sites, want %d", got, v3, want)
	}
	seen := make(map[[3]int32]bool, len(tris))
	for _, tri := range tris {
		a, b, c := sites[tri[0]], sites[tri[1]], sites[tri[2]]
		if robust.Orient2D(a.X, a.Y, b.X, b.Y, c.X, c.Y) <= 0 {
			return fmt.Errorf("face %v is not a counterclockwise triangle", tri)
		}
		if seen[tri] {
			return fmt.Errorf("face %v twice", tri)
		}
		seen[tri] = true
		if !exhaustive {
			continue
		}
		for v, x := range sites {
			if int32(v) != tri[0] && int32(v) != tri[1] && int32(v) != tri[2] &&
				robust.InCircle(a.X, a.Y, b.X, b.Y, c.X, c.Y, x.X, x.Y) > 0 {
				return fmt.Errorf("site %d inside the circumcircle of %v", v, tri)
			}
		}
	}
	return nil
}

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := Build(nil); err != ErrNoPoints {
		t.Errorf("Build(nil) err = %v, want ErrNoPoints", err)
	}
}

func TestSinglePoint(t *testing.T) {
	tr, err := Build([]geom.Point{geom.Pt(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumSites() != 1 || numEdges(tr) != 0 {
		t.Errorf("sites=%d edges=%d", tr.NumSites(), numEdges(tr))
	}
	if len(tr.Neighbors(0)) != 0 {
		t.Error("single point has no neighbors")
	}
}

func TestTwoPoints(t *testing.T) {
	tr, err := Build([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if numEdges(tr) != 1 {
		t.Errorf("edges = %d, want 1", numEdges(tr))
	}
	if nbs := tr.Neighbors(0); len(nbs) != 1 || nbs[0] != 1 {
		t.Errorf("Neighbors(0) = %v", nbs)
	}
	if nbs := tr.Neighbors(1); len(nbs) != 1 || nbs[0] != 0 {
		t.Errorf("Neighbors(1) = %v", nbs)
	}
}

func TestTriangleCCWAndCW(t *testing.T) {
	for _, pts := range [][]geom.Point{
		{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0.5, 1)},
		{geom.Pt(0, 0), geom.Pt(0.5, 1), geom.Pt(1, 0)}, // other orientation
	} {
		tr, err := Build(pts)
		if err != nil {
			t.Fatal(err)
		}
		if numEdges(tr) != 3 {
			t.Errorf("edges = %d, want 3", numEdges(tr))
		}
		sites, off, nbrs := bulk(t, pts)
		if tris := userTriangles(len(pts), off, nbrs); len(tris) != 1 {
			t.Fatalf("triangles = %v, want exactly 1", tris)
		}
		if err := checkFenced(sites, off, nbrs, true); err != nil {
			t.Error(err)
		}
	}
}

func TestCollinearPoints(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0), geom.Pt(4, 0)}
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	if numEdges(tr) != 4 {
		t.Errorf("collinear chain edges = %d, want 4", numEdges(tr))
	}
	if _, off, nbrs := bulk(t, pts); len(userTriangles(len(pts), off, nbrs)) != 0 {
		t.Error("collinear points should produce no triangles")
	}
	// Chain adjacency: interior points have 2 neighbors, endpoints 1.
	if len(tr.Neighbors(0)) != 1 || len(tr.Neighbors(4)) != 1 {
		t.Error("endpoints should have exactly 1 neighbor")
	}
	for i := 1; i <= 3; i++ {
		if len(tr.Neighbors(i)) != 2 {
			t.Errorf("interior point %d has %d neighbors, want 2", i, len(tr.Neighbors(i)))
		}
	}
}

// TestDuplicatePoints: two points at one position would be one site under
// two ids, so the build refuses them.
func TestDuplicatePoints(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1),
		geom.Pt(1, 0), // duplicate of index 1
		geom.Pt(0, 0), // duplicate of index 0
	}
	if _, err := Build(pts); !errors.Is(err, ErrDuplicateSite) {
		t.Errorf("Build err = %v, want ErrDuplicateSite", err)
	}
	if _, _, _, err := Bulk(pts, geom.NewRect(0, 0, 1, 1), []int32{4, 3, 2, 1, 0}); !errors.Is(err, ErrDuplicateSite) {
		t.Errorf("Bulk err = %v, want ErrDuplicateSite", err)
	}
}

func TestSquareWithCenter(t *testing.T) {
	// 4 cocircular corners + center: classic degenerate configuration.
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1), geom.Pt(0.5, 0.5),
	}
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	sites, off, nbrs := bulk(t, pts)
	if err := checkFenced(sites, off, nbrs, true); err != nil {
		t.Error(err)
	}
	if tris := userTriangles(len(pts), off, nbrs); len(tris) != 4 {
		t.Errorf("triangles = %d, want 4 (fan around center)", len(tris))
	}
	if got := len(tr.Neighbors(4)); got != 4 {
		t.Errorf("center degree = %d, want 4", got)
	}
}

func TestGridDegenerate(t *testing.T) {
	// Regular grid: every unit square's corners are cocircular. Exact
	// predicates must keep the structure consistent.
	tr, err := Build(integerGrid(8))
	if err != nil {
		t.Fatal(err)
	}
	sites, off, nbrs := bulk(t, integerGrid(8))
	// Euler: for n points with h on the hull, triangles = 2n-2-h,
	// edges = 3n-3-h... but cocircular ties allow any diagonal choice; the
	// counts still must satisfy Euler's formula exactly.
	n := tr.NumSites()
	h := 4 * (8 - 1) // every boundary point of the grid is on the hull
	wantTris := 2*n - 2 - h
	wantEdges := 3*n - 3 - h
	if got := len(userTriangles(n, off, nbrs)); got != wantTris {
		t.Errorf("triangles = %d, want %d (n=%d h=%d)", got, wantTris, n, h)
	}
	if got := numEdges(tr); got != wantEdges {
		t.Errorf("edges = %d, want %d", got, wantEdges)
	}
	// Empty circumcircle must hold non-strictly (no point strictly inside).
	if err := checkFenced(sites, off, nbrs, true); err != nil {
		t.Error(err)
	}
}

func TestEmptyCircumcircleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, n := range []int{4, 10, 50, 200} {
		sites, off, nbrs := bulk(t, uniformPoints(rng, n))
		if err := checkFenced(sites, off, nbrs, true); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestEulerFormulaRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(500)
		pts := uniformPoints(rng, n)
		tr, err := Build(pts)
		if err != nil {
			t.Fatal(err)
		}
		// V - E + F = 2 with the outer face counted: E = n + triangles - 1.
		_, off, nbrs := bulk(t, pts)
		tris := len(userTriangles(n, off, nbrs))
		if got, want := numEdges(tr), n+tris-1; got != want {
			t.Fatalf("trial %d: edges=%d want %d (n=%d triangles=%d)", trial, got, want, n, tris)
		}
		// Between 3 and n of the points are on the hull, which bounds the
		// triangle count: triangles = 2n - 2 - h.
		if tris < n-2 || tris > 2*n-5 {
			t.Fatalf("trial %d: %d triangles for n=%d, want within [%d, %d]", trial, tris, n, n-2, 2*n-5)
		}
	}
}

func TestNeighborsOrderedCCW(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	pts := uniformPoints(rng, 300)
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	// For every site the neighbor list must be sorted by angle (CCW
	// rotational order), allowing an arbitrary starting rotation.
	for i := 0; i < len(pts); i++ {
		nbs := tr.Neighbors(i)
		if len(nbs) < 3 {
			continue
		}
		angles := make([]float64, len(nbs))
		for j, nb := range nbs {
			d := pts[nb].Sub(pts[i])
			angles[j] = math.Atan2(d.Y, d.X)
		}
		wraps := 0
		for j := 0; j < len(angles); j++ {
			if angles[(j+1)%len(angles)] < angles[j] {
				wraps++
			}
		}
		if wraps != 1 {
			t.Fatalf("site %d neighbors not in CCW rotational order: angles %v", i, angles)
		}
	}
}

func TestNeighborSymmetryLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	sites, off, nbrs := bulk(t, uniformPoints(rng, 5000))
	if err := checkFenced(sites, off, nbrs, false); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyCircumcircleSampledLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large triangulation check")
	}
	rng := rand.New(rand.NewSource(808))
	pts := uniformPoints(rng, 20000)
	sites, off, nbrs := bulk(t, pts)
	tris := fencedTriangles(len(pts), off, nbrs)
	// Sample triangles; for each, check the empty-circumcircle property
	// against the sites adjacent to its three corners (the only candidates
	// that could violate it locally) plus random far sites.
	for trial := 0; trial < 2000; trial++ {
		tri := tris[rng.Intn(len(tris))]
		a, b, c := sites[tri[0]], sites[tri[1]], sites[tri[2]]
		check := func(v int32) {
			if v == tri[0] || v == tri[1] || v == tri[2] {
				return
			}
			if x := sites[v]; robust.InCircle(a.X, a.Y, b.X, b.Y, c.X, c.Y, x.X, x.Y) > 0 {
				t.Fatalf("site %d strictly inside circumcircle of %v", v, tri)
			}
		}
		for _, c := range tri {
			for _, nb := range nbrs[off[c]:off[c+1]] {
				check(nb)
			}
		}
		for k := 0; k < 5; k++ {
			check(int32(rng.Intn(len(sites))))
		}
	}
}

func TestTrianglesAreCCWAndDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	sites, off, nbrs := bulk(t, uniformPoints(rng, 1000))
	seen := make(map[[3]int32]bool)
	for _, tri := range fencedTriangles(1000, off, nbrs) {
		a, b, c := sites[tri[0]], sites[tri[1]], sites[tri[2]]
		if robust.Orient2D(a.X, a.Y, b.X, b.Y, c.X, c.Y) <= 0 {
			t.Fatalf("triangle %v not CCW", tri)
		}
		if seen[tri] { // fencedTriangles starts every face at its smallest corner
			t.Fatalf("duplicate triangle %v", tri)
		}
		seen[tri] = true
	}
	if got, want := len(seen), 2*(1000+FirstSiteID)-5; got != want {
		t.Fatalf("%d triangles, want %d", got, want)
	}
}

// clusteredDuplicates returns 50 random positions, each one to four times.
func clusteredDuplicates() []geom.Point {
	rng := rand.New(rand.NewSource(111))
	var pts []geom.Point
	for i := 0; i < 50; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		for j := 0; j < 1+rng.Intn(4); j++ {
			pts = append(pts, p) // exact duplicates
		}
	}
	return pts
}

// TestClusteredDuplicateHeavyInput: a duplicate anywhere refuses the build,
// and the distinct positions build a Delaunay triangulation.
func TestClusteredDuplicateHeavyInput(t *testing.T) {
	pts := clusteredDuplicates()
	if _, err := Build(pts); !errors.Is(err, ErrDuplicateSite) {
		t.Fatalf("Build err = %v, want ErrDuplicateSite", err)
	}
	distinct := distinctPoints(pts)
	if len(distinct) != 50 {
		t.Fatalf("distinct sites = %d, want 50", len(distinct))
	}
	sites, off, nbrs := bulk(t, distinct)
	if err := checkFenced(sites, off, nbrs, true); err != nil {
		t.Error(err)
	}
}

// distinctPoints is pts without its repeats, first occurrences in order.
func distinctPoints(pts []geom.Point) []geom.Point {
	var out []geom.Point
	for _, p := range pts {
		if !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	return out
}

func BenchmarkBuild10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := uniformPoints(rng, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuild100k(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := uniformPoints(rng, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// integerGrid returns the side×side integer lattice: every unit square's
// corners are cocircular.
func integerGrid(side int) []geom.Point {
	pts := make([]geom.Point, 0, side*side)
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			pts = append(pts, geom.Pt(float64(x), float64(y)))
		}
	}
	return pts
}

// degenerateFixtures returns the package's degenerate inputs by name, plus
// three random ones: the inputs whose triangulation TestAdjacencyDigestsPinned
// pins and FuzzDelaunayBuilds starts from.
func degenerateFixtures() map[string][]geom.Point {
	return map[string][]geom.Point{
		"collinear": {geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0), geom.Pt(4, 0)},
		"duplicates": {
			geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(1, 0), geom.Pt(0, 0),
		},
		"square+centre": {
			geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1), geom.Pt(0.5, 0.5),
		},
		"grid8":     integerGrid(8),
		"grid30":    integerGrid(30),
		"clustered": clusteredDuplicates(),
		"random101": uniformPoints(rand.New(rand.NewSource(101)), 500),
		"random202": uniformPoints(rand.New(rand.NewSource(202)), 1000),
		"random707": uniformPoints(rand.New(rand.NewSource(707)), 2000),
	}
}

// adjacencyDigest is the FNV-1a hash of the CSR arrays, offsets then
// neighbors, each value as four little-endian bytes.
func adjacencyDigest(off, nbrs []int32) uint64 {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, off)  //nolint:errcheck // a hash never fails to write
	binary.Write(h, binary.LittleEndian, nbrs) //nolint:errcheck
	return h.Sum64()
}

// TestAdjacencyDigestsPinned pins every decision Bulk makes, fenced by the
// points' bounding rectangle and in slice order, on the inputs where
// decisions are hard: the edges, the diagonal chosen in a cocircular tie and
// the neighbor each ring starts at. An input with a repeated position pins
// the refusal instead (a zero digest).
func TestAdjacencyDigestsPinned(t *testing.T) {
	want := map[string]uint64{
		"collinear":     0x1a4881908f8971dd,
		"duplicates":    0,
		"square+centre": 0x2e6a3a6cd80a6bab,
		"grid8":         0x1a7b0bdd3c8712f5,
		"grid30":        0xa8b23a9cbbc1a080,
		"clustered":     0,
		"random101":     0x86ff67ff424d9a2,
		"random202":     0x275a4753dcf5c126,
		"random707":     0x1652441469295bc6,
	}
	for name, pts := range degenerateFixtures() {
		sites, off, nbrs, err := Bulk(pts, geom.RectFromPoints(pts...), nil)
		if want[name] == 0 {
			if !errors.Is(err, ErrDuplicateSite) {
				t.Errorf("%s: err = %v, want ErrDuplicateSite", name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := checkFenced(sites, off, nbrs, true); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if got := adjacencyDigest(off, nbrs); got != want[name] {
			t.Errorf("%s: adjacency digest %#x, want %#x", name, got, want[name])
		}
	}
}

// TestBuildUniformAllocs pins what a build costs in allocations. On points
// in general position no orientation or in-circle decision gets past
// package robust's floating-point filter, so Build allocates its arrays and
// nothing else (13 measured). On the integer grid, where quadruples of
// distinct sites really are cocircular, the exact path must still run
// (132 646 measured) and the result must still be Delaunay.
func TestBuildUniformAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("a 20k-point build per run is slow under the race detector")
	}
	uniform := uniformPoints(rand.New(rand.NewSource(808)), 20000)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Build(uniform); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("20k uniform points: %.0f allocations per Build", allocs)
	if allocs > 64 {
		t.Errorf("Build of 20k uniform points allocates %.0f times, want <= 64", allocs)
	}

	grid := integerGrid(30)
	allocs = testing.AllocsPerRun(1, func() {
		if _, err := Build(grid); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("30x30 integer grid: %.0f allocations per Build", allocs)
	if allocs <= 10000 {
		t.Errorf("Build of the 30x30 grid allocates %.0f times, want > 10000: cocircular quadruples no longer reach the exact predicate", allocs)
	}
	sites, off, nbrs := bulk(t, grid)
	if err := checkFenced(sites, off, nbrs, true); err != nil {
		t.Error(err)
	}
}
