package delaunay

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

func uniformPoints(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	return pts
}

// numEdges counts the undirected Delaunay edges from the adjacency, where
// every edge appears once in each endpoint's list.
func numEdges(tr *Triangulation) int {
	_, nbrs := tr.Adjacency()
	return len(nbrs) / 2
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
		tris := tr.Triangles()
		if len(tris) != 1 {
			t.Fatalf("triangles = %v, want exactly 1", tris)
		}
		if err := tr.Validate(true); err != nil {
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
	if len(tr.Triangles()) != 0 {
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

func TestDuplicatePoints(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1),
		geom.Pt(1, 0), // duplicate of index 1
		geom.Pt(0, 0), // duplicate of index 0
	}
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumSites() != 3 {
		t.Errorf("distinct sites = %d, want 3", tr.NumSites())
	}
	// A duplicate's neighbors are its first occurrence's neighbors, and
	// only first occurrences appear in anyone's list.
	for dup, first := range map[int]int{3: 1, 4: 0} {
		if got, want := tr.Neighbors(dup), tr.Neighbors(first); !slices.Equal(got, want) {
			t.Errorf("duplicate %d neighbors %v != first occurrence %d neighbors %v", dup, got, first, want)
		}
	}
	for i := range pts {
		for _, nb := range tr.Neighbors(i) {
			if nb > 2 {
				t.Errorf("Neighbors(%d) = %v names a duplicate", i, tr.Neighbors(i))
			}
		}
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
	if err := tr.Validate(true); err != nil {
		t.Error(err)
	}
	tris := tr.Triangles()
	if len(tris) != 4 {
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
	if err := tr.Validate(false); err != nil {
		t.Fatal(err)
	}
	// Euler: for n points with h on the hull, triangles = 2n-2-h,
	// edges = 3n-3-h... but cocircular ties allow any diagonal choice; the
	// counts still must satisfy Euler's formula exactly.
	n := tr.NumSites()
	h := 4 * (8 - 1) // every boundary point of the grid is on the hull
	wantTris := 2*n - 2 - h
	wantEdges := 3*n - 3 - h
	if got := len(tr.Triangles()); got != wantTris {
		t.Errorf("triangles = %d, want %d (n=%d h=%d)", got, wantTris, n, h)
	}
	if got := numEdges(tr); got != wantEdges {
		t.Errorf("edges = %d, want %d", got, wantEdges)
	}
	// Empty circumcircle must hold non-strictly (no point strictly inside).
	if err := tr.Validate(true); err != nil {
		t.Error(err)
	}
}

func TestEmptyCircumcircleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, n := range []int{4, 10, 50, 200} {
		pts := uniformPoints(rng, n)
		tr, err := Build(pts)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(true); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestEulerFormulaRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(500)
		tr, err := Build(uniformPoints(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		// V - E + F = 2 with the outer face counted: E = n + triangles - 1.
		tris := len(tr.Triangles())
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
	tr, err := Build(uniformPoints(rng, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(false); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyCircumcircleSampledLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large triangulation check")
	}
	rng := rand.New(rand.NewSource(808))
	pts := uniformPoints(rng, 20000)
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	tris := tr.Triangles()
	// Sample triangles; for each, check the empty-circumcircle property
	// against the sites adjacent to its three corners (the only candidates
	// that could violate it locally) plus random far sites.
	for trial := 0; trial < 2000; trial++ {
		tri := tris[rng.Intn(len(tris))]
		check := func(v int32) {
			if v == tri[0] || v == tri[1] || v == tri[2] {
				return
			}
			if tr.inCircle(tri[0], tri[1], tri[2], v) {
				t.Fatalf("site %d strictly inside circumcircle of %v", v, tri)
			}
		}
		for _, c := range tri {
			for _, nb := range tr.Neighbors(int(c)) {
				check(nb)
			}
		}
		for k := 0; k < 5; k++ {
			check(int32(rng.Intn(len(pts))))
		}
	}
}

func TestTrianglesAreCCWAndDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	tr, err := Build(uniformPoints(rng, 1000))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[Triangle]bool)
	for _, tri := range tr.Triangles() {
		if !tr.ccw(tri[0], tri[1], tri[2]) {
			t.Fatalf("triangle %v not CCW", tri)
		}
		// Canonicalize rotation for the duplicate check.
		c := tri
		for c[0] != min3(c[0], c[1], c[2]) {
			c = Triangle{c[1], c[2], c[0]}
		}
		if seen[c] {
			t.Fatalf("duplicate triangle %v", c)
		}
		seen[c] = true
	}
}

func min3(a, b, c int32) int32 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
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

func TestClusteredDuplicateHeavyInput(t *testing.T) {
	tr, err := Build(clusteredDuplicates())
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumSites() != 50 {
		t.Errorf("distinct sites = %d, want 50", tr.NumSites())
	}
	if err := tr.Validate(true); err != nil {
		t.Error(err)
	}
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
// pins and FuzzBulkAndIncrementalAgree starts from.
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
func adjacencyDigest(tr *Triangulation) uint64 {
	h := fnv.New64a()
	off, nbrs := tr.Adjacency()
	binary.Write(h, binary.LittleEndian, off)  //nolint:errcheck // a hash never fails to write
	binary.Write(h, binary.LittleEndian, nbrs) //nolint:errcheck
	return h.Sum64()
}

// TestAdjacencyDigestsPinned pins every decision Build makes on the inputs
// where decisions are hard: the digests were recorded at commit 0d5ed78,
// before inCircle answered a triangle's own corner without package robust,
// so equality here means that shortcut changed no edge — not even the
// diagonal chosen in a cocircular tie.
func TestAdjacencyDigestsPinned(t *testing.T) {
	want := map[string]uint64{
		"collinear":     0x87b702017a34ef49,
		"duplicates":    0xf96db41791d3f1c5,
		"square+centre": 0x380a7899620ac505,
		"grid8":         0x348d9060bf273d18,
		"grid30":        0xc9c6e640cd8ae930,
		"clustered":     0xf0433be72f99e833,
		"random101":     0x8eaed05e113c69bb,
		"random202":     0x6d09b4c495bc6f49,
		"random707":     0xf0e6895ba2272670,
	}
	for name, pts := range degenerateFixtures() {
		tr, err := Build(pts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tr.Validate(true); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if got := adjacencyDigest(tr); got != want[name] {
			t.Errorf("%s: adjacency digest %#x, want %#x", name, got, want[name])
		}
	}
}

// TestBuildUniformAllocs pins the rule in the package comment by what
// breaking it costs. On points in general position Build allocates its
// arrays and nothing else (39 measured; 1.72 million before the rule, every
// one of them a big.Rat deciding that a triangle's corner is not inside its
// circumcircle). On the integer grid, where quadruples of distinct sites
// really are cocircular, the exact path must still run (136 982 measured)
// and the result must still be Delaunay.
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
	var tr *Triangulation
	allocs = testing.AllocsPerRun(1, func() {
		var err error
		if tr, err = Build(grid); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("30x30 integer grid: %.0f allocations per Build", allocs)
	if allocs <= 10000 {
		t.Errorf("Build of the 30x30 grid allocates %.0f times, want > 10000: cocircular quadruples no longer reach the exact predicate", allocs)
	}
	if err := tr.Validate(true); err != nil {
		t.Error(err)
	}
}
