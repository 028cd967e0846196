package geom

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestPreparedContainsMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []Polygon{unitSquare(), lShape()}
	for trial := 0; trial < 30; trial++ {
		shapes = append(shapes, randomStarPolygon(rng, 3+rng.Intn(12)))
	}
	holed := MustPolygon([]Point{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)})
	if err := holed.AddHole([]Point{Pt(0.3, 0.3), Pt(0.7, 0.3), Pt(0.7, 0.7), Pt(0.3, 0.7)}); err != nil {
		t.Fatal(err)
	}
	shapes = append(shapes, holed)

	for si, pg := range shapes {
		pp := Prepare(pg)
		// Random probes plus exact boundary probes.
		probes := make([]Point, 0, 600)
		for i := 0; i < 500; i++ {
			probes = append(probes, Pt(rng.Float64()*2.4-0.2, rng.Float64()*2.4-0.2))
		}
		for _, v := range pg.Outer {
			probes = append(probes, v) // vertices
		}
		for i := range pg.Outer {
			probes = append(probes, Midpoint(pg.Outer[i], pg.Outer[(i+1)%len(pg.Outer)]))
		}
		for _, h := range pg.Holes {
			probes = append(probes, h...)
		}
		for _, p := range probes {
			if got, want := pp.ContainsPoint(p), pg.ContainsPoint(p); got != want {
				t.Fatalf("shape %d: prepared contains(%v) = %v, plain %v", si, p, got, want)
			}
		}
	}
}

func TestPreparedIntersectsSegmentMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapes := []Polygon{unitSquare(), lShape()}
	for trial := 0; trial < 20; trial++ {
		shapes = append(shapes, randomStarPolygon(rng, 3+rng.Intn(12)))
	}
	for si, pg := range shapes {
		pp := Prepare(pg)
		for i := 0; i < 800; i++ {
			s := Seg(
				Pt(rng.Float64()*2-0.5, rng.Float64()*2-0.5),
				Pt(rng.Float64()*2-0.5, rng.Float64()*2-0.5),
			)
			if rng.Intn(4) == 0 { // short segments stress edge rejection
				s.B = s.A.Add(Pt((rng.Float64()-0.5)*0.05, (rng.Float64()-0.5)*0.05))
			}
			if got, want := pp.IntersectsSegment(s), pg.IntersectsSegment(s); got != want {
				t.Fatalf("shape %d: prepared intersects(%v) = %v, plain %v", si, s, got, want)
			}
		}
	}
}

func TestPreparedAccessors(t *testing.T) {
	pg := lShape()
	pp := Prepare(pg)
	if pp.Bounds() != pg.Bounds() {
		t.Error("Bounds mismatch")
	}
	if pp.Polygon().Area() != pg.Area() {
		t.Error("Polygon accessor mismatch")
	}
	if !pg.ContainsPointStrict(pp.InteriorPoint()) {
		t.Error("InteriorPoint not inside")
	}
	tri := Ring{Pt(0.2, 0.2), Pt(0.5, 0.2), Pt(0.35, 0.5)}
	if pp.IntersectsRingView(ViewRing(tri)) != pg.IntersectsRing(tri) {
		t.Error("IntersectsRingView mismatch")
	}
}

func BenchmarkContainsPlain(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pg := randomStarPolygon(rng, 10)
	probes := make([]Point, 256)
	for i := range probes {
		probes[i] = Pt(rng.Float64(), rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg.ContainsPoint(probes[i%len(probes)])
	}
}

func BenchmarkContainsPrepared(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pp := Prepare(randomStarPolygon(rng, 10))
	probes := make([]Point, 256)
	for i := range probes {
		probes[i] = Pt(rng.Float64(), rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pp.ContainsPoint(probes[i%len(probes)])
	}
}

func BenchmarkIntersectsSegmentPlain(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pg := randomStarPolygon(rng, 10)
	segs := make([]Segment, 256)
	for i := range segs {
		a := Pt(rng.Float64(), rng.Float64())
		segs[i] = Seg(a, a.Add(Pt(0.02, 0.02)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg.IntersectsSegment(segs[i%len(segs)])
	}
}

func BenchmarkIntersectsSegmentPrepared(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pp := Prepare(randomStarPolygon(rng, 10))
	segs := make([]Segment, 256)
	for i := range segs {
		a := Pt(rng.Float64(), rng.Float64())
		segs[i] = Seg(a, a.Add(Pt(0.02, 0.02)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pp.IntersectsSegment(segs[i%len(segs)])
	}
}

func TestPreparedIntersectsRingMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	shapes := []Polygon{unitSquare(), lShape()}
	for trial := 0; trial < 20; trial++ {
		shapes = append(shapes, randomStarPolygon(rng, 3+rng.Intn(12)))
	}
	holed := MustPolygon([]Point{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)})
	if err := holed.AddHole([]Point{Pt(0.3, 0.3), Pt(0.7, 0.3), Pt(0.7, 0.7), Pt(0.3, 0.7)}); err != nil {
		t.Fatal(err)
	}
	shapes = append(shapes, holed)

	for si, pg := range shapes {
		pp := Prepare(pg)
		for trial := 0; trial < 300; trial++ {
			// Convex rings of 3..8 vertices at assorted scales, like the
			// Voronoi cells the strict rule tests: distinct points of one
			// circle in counterclockwise order.
			cx, cy := rng.Float64()*2.4-0.2, rng.Float64()*2.4-0.2
			radius := 0.01 + rng.Float64()*rng.Float64()
			k := 3 + rng.Intn(6)
			ring := make(Ring, 0, k)
			for j := 0; j < k; j++ {
				ang := (float64(j) + rng.Float64()*0.7) / float64(k) * 2 * math.Pi
				ring = append(ring, Pt(cx+radius*math.Cos(ang), cy+radius*math.Sin(ang)))
			}
			if got, want := pp.IntersectsRingView(ViewRing(ring)), pg.IntersectsRing(ring); got != want {
				t.Fatalf("shape %d trial %d: prepared IntersectsRingView = %v, plain IntersectsRing %v", si, trial, got, want)
			}
		}
		if got, want := pp.IntersectsRingView(RingView{}), pg.IntersectsRing(nil); got != want {
			t.Fatalf("shape %d: empty ring: prepared %v, plain %v", si, got, want)
		}
	}
}

// TestTouchesBoundaryEqualsIntersectsSegmentFromOutside is the equivalence
// the Voronoi BFS relies on: for a segment whose A endpoint is not in the
// closed polygon, touching the boundary and intersecting the polygon are the
// same thing. Checked against the prepared and the plain (two containment
// scans plus every edge) IntersectsSegment, over concave and holed polygons,
// with A outside the outer ring or inside a hole and B inside, outside, on
// an edge, on a vertex, equal to A, or placed so the segment is collinear
// with an edge.
func TestTouchesBoundaryEqualsIntersectsSegmentFromOutside(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	withHole := func(pg Polygon, hole []Point) Polygon {
		if err := pg.AddHole(hole); err != nil {
			t.Fatal(err)
		}
		return pg
	}
	shapes := []Polygon{
		unitSquare(),
		lShape(),
		withHole(unitSquare(), []Point{Pt(0.25, 0.25), Pt(0.75, 0.25), Pt(0.75, 0.75), Pt(0.25, 0.75)}),
		withHole(lShape(), []Point{Pt(0.25, 0.25), Pt(0.75, 0.25), Pt(0.5, 1.5)}),
	}
	for trial := 0; trial < 12; trial++ {
		pg := randomStarPolygon(rng, 3+rng.Intn(12))
		c := pg.InteriorPoint()
		hole := []Point{Pt(c.X-0.01, c.Y-0.01), Pt(c.X+0.01, c.Y-0.01), Pt(c.X, c.Y+0.01)}
		if holed := pg.Clone(); trial%2 == 0 && holed.AddHole(hole) == nil {
			pg = holed
		}
		shapes = append(shapes, pg)
	}

	tested, touched := 0, 0
	for si, pg := range shapes {
		pp := Prepare(pg)
		b := pg.Bounds()
		random := func() Point {
			return Pt(b.MinX-0.5+rng.Float64()*(b.Width()+1), b.MinY-0.5+rng.Float64()*(b.Height()+1))
		}
		// Anchors: random points, points inside each hole, and points on the
		// extension of each edge's line (exactly collinear on the
		// axis-aligned shapes).
		var anchors, targets []Point
		for i := 0; i < 30; i++ {
			anchors = append(anchors, random())
			targets = append(targets, random())
		}
		for _, h := range pg.Holes {
			anchors = append(anchors, Polygon{Outer: h}.InteriorPoint())
		}
		pg.rings(func(r Ring) bool {
			for i := range r {
				a, c := r[i], r[(i+1)%len(r)]
				d := c.Sub(a)
				anchors = append(anchors, a.Sub(d), c.Add(d), c.Add(d.Scale(0.5)))
				// Targets on the boundary: vertices, edge midpoints, and
				// points along the edge's line inside and beyond the edge.
				targets = append(targets, a, Midpoint(a, c), a.Add(d.Scale(0.25)), c.Add(d.Scale(0.25)))
			}
			return true
		})
		for i := 0; i < 20; i++ {
			targets = append(targets, pg.InteriorPoint().Add(Pt((rng.Float64()-0.5)*0.02, (rng.Float64()-0.5)*0.02)))
		}

		for _, a := range anchors {
			if pg.ContainsPoint(a) {
				continue // precondition: A outside the closed polygon
			}
			for _, bpt := range append(targets, a) { // a itself: zero-length
				s := Seg(a, bpt)
				got := pp.TouchesBoundary(s)
				if prepared, plain := pp.IntersectsSegment(s), pg.IntersectsSegment(s); got != prepared || got != plain {
					t.Fatalf("shape %d: %v from outside: TouchesBoundary %v, prepared IntersectsSegment %v, plain %v",
						si, s, got, prepared, plain)
				}
				tested++
				if got {
					touched++
				}
			}
		}
	}
	if tested < 10000 || touched < tested/20 || touched > tested*19/20 {
		t.Fatalf("%d segments tested, %d touching: the cases do not cover both outcomes", tested, touched)
	}
}

// TestIntersectsSegmentFromInsideIgnoresBoundary pins the other half of
// IntersectsSegment's definition: a segment strictly inside the polygon
// touches no edge and still intersects it.
func TestIntersectsSegmentFromInsideIgnoresBoundary(t *testing.T) {
	pp := Prepare(unitSquare())
	s := Seg(Pt(0.4, 0.4), Pt(0.6, 0.5))
	if pp.TouchesBoundary(s) || !pp.IntersectsSegment(s) {
		t.Fatalf("interior segment: TouchesBoundary %v, IntersectsSegment %v; want false, true",
			pp.TouchesBoundary(s), pp.IntersectsSegment(s))
	}
}

// TestPreparedInteriorPointIsPolygons checks Prepare caches exactly the
// polygon's own anchor (seeds, and so query statistics, depend on it).
func TestPreparedInteriorPointIsPolygons(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		pg := randomStarPolygon(rng, 3+rng.Intn(12))
		if got, want := Prepare(pg).InteriorPoint(), pg.InteriorPoint(); got != want {
			t.Fatalf("trial %d: prepared anchor %v, polygon anchor %v", trial, got, want)
		}
	}
}

// TestTouchesBoundaryAllocs pins the expansion test at zero allocations,
// on the edge loop and on the grid's lists: segments a cell or two long, as
// the BFS tests on a 1 % region, and long ones the loop keeps.
func TestTouchesBoundaryAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pg := randomStarPolygon(rng, 10)
	segs := make([]Segment, 256)
	for i := range segs {
		a := Pt(rng.Float64(), rng.Float64())
		segs[i] = Seg(a, Pt(rng.Float64(), rng.Float64()))
		if i%2 == 0 {
			segs[i].B = a.Add(Pt((rng.Float64()-0.5)*0.05, (rng.Float64()-0.5)*0.05))
		}
	}
	for _, grid := range []bool{false, true} {
		pp := Prepare(pg)
		if grid {
			pp.grid.Store(newContainGrid(pp))
		}
		hits := 0
		allocs := testing.AllocsPerRun(20, func() {
			for _, s := range segs {
				if pp.TouchesBoundary(s) {
					hits++
				}
			}
		})
		if g := pp.grid.Load(); allocs != 0 || hits == 0 || (g != nil && g.lists != nil) != grid {
			t.Fatalf("lists %v: TouchesBoundary: %.1f allocs per %d tests (want 0), %d hits (want > 0), grid %v",
				grid, allocs, len(segs), hits, g != nil)
		}
	}
}

// TestGridBuildAllocs pins a build at two allocations, the grid and the one
// array behind every list: a region prepared per request (the serving tier
// decodes its region afresh each time) pays them on every query that
// reaches gridAfter.
func TestGridBuildAllocs(t *testing.T) {
	pp := Prepare(randomStarPolygon(rand.New(rand.NewSource(3)), 10))
	var g *containGrid
	allocs := testing.AllocsPerRun(20, func() { g = newContainGrid(pp) })
	if allocs > 2 || g == nil || g.lists == nil {
		t.Fatalf("newContainGrid(10 vertices): %.0f allocs (want <= 2), grid %v, lists %v", allocs, g != nil, g != nil && g.lists != nil)
	}
	t.Logf("%d boundary cells, %d list entries, %d bytes of lists", g.lists[0]-1, len(g.lists), 2*len(g.lists))
}

// TestPrepareAllocs pins what every region pays up front: the prepared
// form and one edge array sized from every ring, on a 10-vertex star and on
// one with a hole. The grid is not in it (it is built lazily, see
// gridAfter), so a one-shot caller and the request decoder pay only these.
func TestPrepareAllocs(t *testing.T) {
	star := randomStarPolygon(rand.New(rand.NewSource(3)), 10)
	holed := star.Clone()
	if err := holed.AddHole([]Point{Pt(0.48, 0.48), Pt(0.52, 0.48), Pt(0.52, 0.52), Pt(0.48, 0.52)}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		pg   Polygon
	}{{"star", star}, {"holed", holed}} {
		var pp *PreparedPolygon
		allocs := testing.AllocsPerRun(20, func() { pp = Prepare(tc.pg) })
		edges := len(tc.pg.Outer)
		for _, h := range tc.pg.Holes {
			edges += len(h)
		}
		if allocs > 2 || pp.Err() != nil || len(pp.edges) != edges || pp.grid.Load() != nil {
			t.Fatalf("Prepare(%s, %d edges): %.0f allocs (want <= 2), err %v, %d edges packed, grid built = %v (want false)",
				tc.name, edges, allocs, pp.Err(), len(pp.edges), pp.grid.Load() != nil)
		}
	}
}

func BenchmarkPrepare(b *testing.B) {
	pg := randomStarPolygon(rand.New(rand.NewSource(3)), 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Prepare(pg)
	}
}

// BenchmarkContainGridBuild and BenchmarkContainsInMBR are the two numbers
// gridAfter is derived from: what the grid costs to build, and what it
// saves per test on the points a query actually tests — candidates inside
// the region's MBR.
func BenchmarkContainGridBuild(b *testing.B) {
	pp := Prepare(randomStarPolygon(rand.New(rand.NewSource(3)), 10))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if newContainGrid(pp) == nil {
			b.Fatal("grid refused")
		}
	}
}

func BenchmarkContainsInMBR(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pp := Prepare(randomStarPolygon(rng, 10))
	mbr := pp.Bounds()
	probes := make([]Point, 256)
	for i := range probes {
		probes[i] = Pt(mbr.MinX+rng.Float64()*mbr.Width(), mbr.MinY+rng.Float64()*mbr.Height())
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pp.containsExact(probes[i%len(probes)])
		}
	})
	b.Run("grid", func(b *testing.B) {
		pp.grid.Store(newContainGrid(pp))
		for i := 0; i < b.N; i++ {
			pp.ContainsPoint(probes[i%len(probes)])
		}
	})
}

// TestIntersectsRingViewSeesEveryRing: a ring that touches no edge may hold
// any ring of the polygon, not only the outer one — a hole astray, outside
// the outer ring, is inside the polygon by the even-odd rule, and the plain
// polygon says so.
func TestIntersectsRingViewSeesEveryRing(t *testing.T) {
	pg := lShape()
	pg.Holes = []Ring{{Pt(1.4, 1.4), Pt(1.6, 1.4), Pt(1.5, 1.6)}} // in the notch
	around := Ring{Pt(1.2, 1.2), Pt(1.8, 1.2), Pt(1.8, 1.8), Pt(1.2, 1.8)}
	if got, want := Prepare(pg).IntersectsRingView(ViewRing(around)), pg.IntersectsRing(around); got != want || !want {
		t.Fatalf("ring around a hole astray: prepared %v, plain %v, want true", got, want)
	}
}

// BenchmarkTouchesBoundary is the number gridWalkMax is derived from: the
// segment test on the edge loop and on the grid's lists, by how many cells
// the segment is long, over the segments a query tests — from a point
// outside the region and near its boundary.
func BenchmarkTouchesBoundary(b *testing.B) {
	for _, vertices := range []int{10, 100} {
		rng := rand.New(rand.NewSource(3))
		pg := randomStarPolygon(rng, vertices)
		mbr := pg.Bounds()
		for _, cells := range []float64{0.5, 1, 2, 3, 4, 6, 8} {
			segs := make([]Segment, 0, 256)
			for len(segs) < cap(segs) {
				// Within a segment's length of the boundary, as the
				// candidates Algorithm 1 tests from are.
				i := rng.Intn(vertices)
				p, q, f := pg.Outer[i], pg.Outer[(i+1)%vertices], rng.Float64()
				a := Pt(p.X+f*(q.X-p.X), p.Y+f*(q.Y-p.Y))
				ang := rng.Float64() * 2 * math.Pi
				d := rng.Float64() * cells / gridSize
				a = Pt(a.X+math.Cos(ang)*d*mbr.Width(), a.Y+math.Sin(ang)*d*mbr.Height())
				if pg.ContainsPoint(a) {
					continue
				}
				ang = rng.Float64() * 2 * math.Pi
				segs = append(segs, Seg(a, Pt(a.X+math.Cos(ang)*cells*mbr.Width()/gridSize, a.Y+math.Sin(ang)*cells*mbr.Height()/gridSize)))
			}
			for _, lists := range []bool{false, true} {
				pp := Prepare(pg)
				name := "loop"
				if lists {
					pp.grid.Store(newContainGrid(pp))
					name = "lists"
				}
				b.Run(fmt.Sprintf("vertices=%d/cells=%v/%s", vertices, cells, name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						pp.TouchesBoundary(segs[i%len(segs)])
					}
				})
			}
		}
	}
}

// TestShortSegmentMeetsAHoleAstrayOutsideTheGrid: a hole outside the MBR
// can meet a segment short enough for the grid's lists, over cells no edge
// is marked in. Such a polygon gets no lists, so the answer stays the edge
// loop's — the plain polygon's.
func TestShortSegmentMeetsAHoleAstrayOutsideTheGrid(t *testing.T) {
	pg := Polygon{
		Outer: Ring{Pt(0, 0), Pt(1, 0.5), Pt(0, 1)},
		Holes: []Ring{{Pt(1.03, 0.1), Pt(1.08, 0.1), Pt(1.08, 0.3)}},
	}
	pp := Prepare(pg)
	pp.grid.Store(newContainGrid(pp))
	if g := pp.grid.Load(); g == nil || g.lists != nil {
		t.Fatalf("grid built = %v, with lists = %v; want a grid without lists", g != nil, g != nil && g.lists != nil)
	}
	s := Seg(Pt(0.99, 0.2), Pt(1.06, 0.2)) // two cells long, through the hole's edge at x = 1.055
	ring := Ring{s.A, s.B, Pt(1.06, 0.21)}
	if !pg.IntersectsSegment(s) || !pp.TouchesBoundary(s) || !pp.IntersectsSegment(s) ||
		pp.IntersectsRingView(ViewRing(ring)) != pg.IntersectsRing(ring) || !pp.IntersectsRingView(ViewRing(ring)) {
		t.Fatalf("segment %v and a ring on it must both meet the hole astray: TouchesBoundary %v, IntersectsRingView %v",
			s, pp.TouchesBoundary(s), pp.IntersectsRingView(ViewRing(ring)))
	}
}
