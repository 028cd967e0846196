package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// unitSquare is the polygon [0,1]².
func unitSquare() Polygon {
	return MustPolygon([]Point{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)})
}

// lShape is a concave hexagon shaped like an L covering [0,2]² minus the
// upper-right quadrant [1,2]×[1,2].
func lShape() Polygon {
	return MustPolygon([]Point{
		Pt(0, 0), Pt(2, 0), Pt(2, 1), Pt(1, 1), Pt(1, 2), Pt(0, 2),
	})
}

func TestNewPolygonValidation(t *testing.T) {
	if _, err := NewPolygon([]Point{Pt(0, 0), Pt(1, 1)}); err != ErrTooFewVertices {
		t.Errorf("two vertices: err = %v, want ErrTooFewVertices", err)
	}
	if _, err := NewPolygon([]Point{Pt(0, 0), Pt(1, 1), Pt(2, 2)}); err != ErrZeroArea && err != ErrSelfIntersect {
		t.Errorf("collinear: err = %v, want ErrZeroArea or ErrSelfIntersect", err)
	}
	bowtie := []Point{Pt(0, 0), Pt(2, 2), Pt(2, 0), Pt(0, 2)}
	if _, err := NewPolygon(bowtie); err != ErrSelfIntersect {
		t.Errorf("bowtie: err = %v, want ErrSelfIntersect", err)
	}
	// Duplicate consecutive vertices and an explicit closing vertex are
	// normalized away.
	pg, err := NewPolygon([]Point{Pt(0, 0), Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1), Pt(0, 0)})
	if err != nil {
		t.Fatalf("normalizable polygon rejected: %v", err)
	}
	if len(pg.Outer) != 4 {
		t.Errorf("normalized ring has %d vertices, want 4", len(pg.Outer))
	}
}

func TestPolygonMeasures(t *testing.T) {
	sq := unitSquare()
	if got := sq.Area(); got != 1 {
		t.Errorf("square area = %v", got)
	}
	if got := sq.Perimeter(); got != 4 {
		t.Errorf("square perimeter = %v", got)
	}
	if got := sq.Bounds(); got != NewRect(0, 0, 1, 1) {
		t.Errorf("square bounds = %v", got)
	}
	l := lShape()
	if got := l.Area(); got != 3 {
		t.Errorf("L area = %v, want 3", got)
	}
}

// TestRingWindingHelpers: the sign of SignedArea is the winding.
func TestRingWindingHelpers(t *testing.T) {
	ccw := Ring{Pt(0, 0), Pt(1, 0), Pt(1, 1)}
	if ccw.SignedArea() != 0.5 {
		t.Errorf("ccw signed area = %v, want 0.5", ccw.SignedArea())
	}
	cw := Ring{Pt(0, 0), Pt(1, 1), Pt(1, 0)}
	if cw.SignedArea() != -0.5 {
		t.Errorf("cw signed area = %v, want -0.5", cw.SignedArea())
	}
	slices.Reverse(cw)
	if cw.SignedArea() != 0.5 {
		t.Errorf("reversing the cw ring gives signed area %v, want 0.5", cw.SignedArea())
	}
}

func TestContainsPointSquare(t *testing.T) {
	sq := unitSquare()
	inside := []Point{Pt(0.5, 0.5), Pt(0.001, 0.999)}
	boundary := []Point{Pt(0, 0), Pt(1, 1), Pt(0.5, 0), Pt(0, 0.5), Pt(1, 0.3)}
	outside := []Point{Pt(-0.1, 0.5), Pt(1.1, 0.5), Pt(0.5, -0.001), Pt(2, 2)}
	for _, p := range inside {
		if !sq.ContainsPoint(p) {
			t.Errorf("inside point %v reported outside", p)
		}
		if !sq.ContainsPointStrict(p) {
			t.Errorf("inside point %v not strictly inside", p)
		}
	}
	for _, p := range boundary {
		if !sq.ContainsPoint(p) {
			t.Errorf("boundary point %v reported outside (closed semantics)", p)
		}
		if sq.ContainsPointStrict(p) {
			t.Errorf("boundary point %v reported strictly inside", p)
		}
	}
	for _, p := range outside {
		if sq.ContainsPoint(p) {
			t.Errorf("outside point %v reported inside", p)
		}
	}
}

func TestContainsPointConcave(t *testing.T) {
	l := lShape()
	if !l.ContainsPoint(Pt(0.5, 1.5)) {
		t.Error("upper-left arm should be inside")
	}
	if !l.ContainsPoint(Pt(1.5, 0.5)) {
		t.Error("lower-right arm should be inside")
	}
	if l.ContainsPoint(Pt(1.5, 1.5)) {
		t.Error("notch should be outside")
	}
	if !l.ContainsPoint(Pt(1, 1.5)) {
		t.Error("notch boundary should be inside (closed)")
	}
}

func TestContainsPointVertexRayDegeneracies(t *testing.T) {
	// A polygon whose vertices align horizontally with the probe point —
	// the classic ray-casting trap.
	diamond := MustPolygon([]Point{Pt(0, 0), Pt(2, -2), Pt(4, 0), Pt(2, 2)})
	if !diamond.ContainsPoint(Pt(2, 0)) {
		t.Error("center aligned with two vertices should be inside")
	}
	if diamond.ContainsPoint(Pt(-1, 0)) {
		t.Error("left of polygon, ray through two vertices: outside")
	}
	if diamond.ContainsPoint(Pt(5, 0)) {
		t.Error("right of polygon: outside")
	}
	if !diamond.ContainsPoint(Pt(0, 0)) {
		t.Error("vertex itself should be contained")
	}
}

func TestContainsPointVsReferenceImplementation(t *testing.T) {
	// Compare the robust crossing test with a brute-force winding-number
	// reference on random star polygons and random probes.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		pg := randomStarPolygon(rng, 3+rng.Intn(15))
		for i := 0; i < 200; i++ {
			p := Pt(rng.Float64()*2-0.5, rng.Float64()*2-0.5)
			if pg.Outer.onBoundary(p) {
				continue // reference is unreliable exactly on edges
			}
			got := pg.ContainsPoint(p)
			want := windingNumber(pg.Outer, p) != 0
			if got != want {
				t.Fatalf("trial %d: ContainsPoint(%v) = %v, winding says %v\nring: %v",
					trial, p, got, want, pg.Outer)
			}
		}
	}
}

// windingNumber is a float64 winding-number reference implementation.
func windingNumber(r Ring, p Point) int {
	wn := 0
	n := len(r)
	for i := 0; i < n; i++ {
		a, b := r[i], r[(i+1)%n]
		if a.Y <= p.Y {
			if b.Y > p.Y && Orient(a, b, p) == CounterClockwise {
				wn++
			}
		} else if b.Y <= p.Y && Orient(a, b, p) == Clockwise {
			wn--
		}
	}
	return wn
}

// randomStarPolygon builds a random simple star-shaped polygon around
// (0.5, 0.5) with k vertices.
func randomStarPolygon(rng *rand.Rand, k int) Polygon {
	c := Pt(0.5, 0.5)
	angles := make([]float64, k)
	for i := range angles {
		angles[i] = rng.Float64() * 2 * math.Pi
	}
	slices.Sort(angles)
	// Drop duplicate angles to guarantee simplicity.
	pts := make([]Point, 0, k)
	for i, a := range angles {
		if i > 0 && a-angles[i-1] < 1e-9 {
			continue
		}
		r := 0.1 + 0.4*rng.Float64()
		pts = append(pts, Pt(c.X+r*math.Cos(a), c.Y+r*math.Sin(a)))
	}
	if len(pts) < 3 {
		return MustPolygon([]Point{Pt(0.2, 0.2), Pt(0.8, 0.2), Pt(0.5, 0.8)})
	}
	pg, err := NewPolygon(pts)
	if err != nil {
		// Extremely unlikely; fall back to a triangle.
		return MustPolygon([]Point{Pt(0.2, 0.2), Pt(0.8, 0.2), Pt(0.5, 0.8)})
	}
	return pg
}

func TestPolygonWithHole(t *testing.T) {
	pg := MustPolygon([]Point{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)})
	if err := pg.AddHole([]Point{Pt(1, 1), Pt(3, 1), Pt(3, 3), Pt(1, 3)}); err != nil {
		t.Fatalf("AddHole: %v", err)
	}
	if got := pg.Area(); got != 12 {
		t.Errorf("area with hole = %v, want 12", got)
	}
	if got := pg.Perimeter(); got != 16+8 {
		t.Errorf("perimeter with hole = %v, want 24", got)
	}
	if pg.ContainsPoint(Pt(2, 2)) {
		t.Error("point in hole should be outside")
	}
	if !pg.ContainsPoint(Pt(0.5, 2)) {
		t.Error("point between outer and hole should be inside")
	}
	if !pg.ContainsPoint(Pt(1, 2)) {
		t.Error("hole boundary should be contained (closed)")
	}
	if pg.ContainsPointStrict(Pt(1, 2)) {
		t.Error("hole boundary is not strictly inside")
	}
}

func TestAddHoleValidation(t *testing.T) {
	pg := unitSquare()
	if err := pg.AddHole([]Point{Pt(0, 0), Pt(1, 1)}); err != ErrTooFewVertices {
		t.Errorf("AddHole two vertices: %v", err)
	}
	if err := pg.AddHole([]Point{Pt(0, 0), Pt(1, 1), Pt(0.5, 0.5), Pt(2, 2)}); err == nil {
		t.Error("AddHole should reject degenerate ring")
	}
}

// TestAddHoleRefusesMalformedHoles: a hole must lie strictly inside the
// outer ring and apart from every other hole. One that crosses or touches
// the outer ring, lies outside it, or crosses, touches, holds or sits in
// another hole is ErrSelfIntersect, and the polygon keeps the holes it had.
func TestAddHoleRefusesMalformedHoles(t *testing.T) {
	square := func(x0, y0, x1, y1 float64) []Point {
		return []Point{Pt(x0, y0), Pt(x1, y0), Pt(x1, y1), Pt(x0, y1)}
	}
	for name, hole := range map[string][]Point{
		"crossing the outer ring":         square(0.5, 0.5, 1.5, 1.5),
		"touching the outer ring":         {Pt(0, 0.5), Pt(0.5, 0.4), Pt(0.5, 0.6)},
		"along an outer edge":             square(0, 0.2, 0.2, 0.4),
		"holding the outer ring":          square(-1, -1, 2, 2),
		"outside the outer ring":          square(2, 2, 3, 3),
		"crossing the first hole":         square(0.3, 0.3, 0.5, 0.5),
		"touching the first hole":         square(0.4, 0.1, 0.6, 0.2),
		"nested in the first hole":        square(0.15, 0.25, 0.35, 0.35),
		"holding the first hole":          square(0.05, 0.05, 0.45, 0.95),
		"sharing the first hole's corner": square(0.4, 0.9, 0.6, 0.95),
	} {
		pg := unitSquare()
		if err := pg.AddHole(square(0.1, 0.2, 0.4, 0.9)); err != nil {
			t.Fatalf("the first hole: %v", err)
		}
		if err := pg.AddHole(hole); err != ErrSelfIntersect || len(pg.Holes) != 1 {
			t.Errorf("a hole %s: err %v, %d holes; want ErrSelfIntersect and 1", name, err, len(pg.Holes))
		}
	}
	pg := unitSquare()
	for _, h := range [][]Point{square(0.1, 0.2, 0.4, 0.9), square(0.5, 0.5, 0.9, 0.9), {Pt(0.5, 0.1), Pt(0.9, 0.1), Pt(0.7, 0.4)}} {
		if err := pg.AddHole(h); err != nil {
			t.Fatalf("a hole apart from the others: %v", err)
		}
	}

	// Scaled and shifted random stars as holes of random stars: the ones
	// that meet or leave their outer ring, by a scan of every edge pair and
	// vertex, are refused, and only those.
	rng := rand.New(rand.NewSource(49))
	refused := 0
	for trial := range 400 {
		pg := randomStarPolygon(rng, 3+rng.Intn(12))
		star := randomStarPolygon(rng, 3+rng.Intn(12)).Outer
		scale, dx, dy := 0.1+0.8*rng.Float64(), 0.4*rng.Float64()-0.2, 0.4*rng.Float64()-0.2
		hole := make([]Point, len(star))
		for i, p := range star {
			hole[i] = Pt(0.5+(p.X-0.5)*scale+dx, 0.5+(p.Y-0.5)*scale+dy)
		}
		malformed := !pg.ContainsPointStrict(hole[0])
		for i := range hole {
			for j := range pg.Outer {
				if Seg(hole[i], hole[(i+1)%len(hole)]).Intersects(Seg(pg.Outer[j], pg.Outer[(j+1)%len(pg.Outer)])) {
					malformed = true
				}
			}
		}
		switch err := pg.AddHole(hole); {
		case malformed && err != ErrSelfIntersect:
			t.Errorf("trial %d: a hole that meets or leaves its outer ring: err %v", trial, err)
		case !malformed && err != nil:
			t.Errorf("trial %d: a hole strictly inside its outer ring: err %v", trial, err)
		case malformed:
			refused++
		}
	}
	if refused == 0 || refused == 400 {
		t.Fatalf("%d of 400 holes refused: the probe exercises one case only", refused)
	}
	t.Logf("%d of 400 holes meet or leave their outer ring, all refused", refused)
}

func TestIntersectsSegment(t *testing.T) {
	l := lShape()
	tests := []struct {
		name string
		s    Segment
		want bool
	}{
		{"entirely inside", Seg(Pt(0.2, 0.2), Pt(0.8, 0.8)), true},
		{"crossing boundary", Seg(Pt(-1, 0.5), Pt(0.5, 0.5)), true},
		{"through the notch only", Seg(Pt(1.2, 1.8), Pt(1.8, 1.2)), false},
		{"notch corner touch", Seg(Pt(1, 1), Pt(2, 2)), true},
		{"fully outside", Seg(Pt(3, 3), Pt(4, 4)), false},
		{"grazing an edge collinearly", Seg(Pt(0.5, 0), Pt(1.5, 0)), true},
		{"spanning the whole polygon", Seg(Pt(-1, 0.5), Pt(3, 0.5)), true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := l.IntersectsSegment(tc.s); got != tc.want {
				t.Errorf("IntersectsSegment = %v, want %v", got, tc.want)
			}
		})
	}
}

// IntersectsRing reports whether the closed polygon and the closed region
// bounded by ring share at least one point: the plain oracle the prepared
// ring tests (IntersectsRingView) and the grid's lists are held to. No
// query calls a polygon–ring test, so it lives here.
func (pg Polygon) IntersectsRing(ring Ring) bool {
	if len(ring) == 0 {
		return false
	}
	if !pg.Bounds().Intersects(ring.Bounds()) {
		return false
	}
	for _, v := range ring {
		if pg.ContainsPoint(v) {
			return true
		}
	}
	other := Polygon{Outer: ring}
	var anyVertex bool
	pg.rings(func(r Ring) bool {
		for _, v := range r {
			if other.ContainsPoint(v) {
				anyVertex = true
				return false
			}
		}
		return true
	})
	if anyVertex {
		return true
	}
	hit := false
	pg.rings(func(r Ring) bool {
		for i := range r {
			e := Seg(r[i], r[(i+1)%len(r)])
			for j := range ring {
				if e.Intersects(Seg(ring[j], ring[(j+1)%len(ring)])) {
					hit = true
					return false
				}
			}
		}
		return true
	})
	return hit
}

func TestIntersectsRing(t *testing.T) {
	l := lShape()
	inside := Ring{Pt(0.2, 0.2), Pt(0.5, 0.2), Pt(0.35, 0.5)}
	if !l.IntersectsRing(inside) {
		t.Error("triangle inside polygon should intersect")
	}
	notch := Ring{Pt(1.2, 1.2), Pt(1.8, 1.2), Pt(1.5, 1.8)}
	if l.IntersectsRing(notch) {
		t.Error("triangle in notch should not intersect")
	}
	surrounding := Ring{Pt(-1, -1), Pt(3, -1), Pt(3, 3), Pt(-1, 3)}
	if !l.IntersectsRing(surrounding) {
		t.Error("ring containing the polygon should intersect")
	}
	if l.IntersectsRing(nil) {
		t.Error("empty ring should not intersect")
	}
}

func TestInteriorPoint(t *testing.T) {
	shapes := []Polygon{
		unitSquare(),
		lShape(),
		MustPolygon([]Point{Pt(0, 0), Pt(10, 0), Pt(10, 1), Pt(1, 1), Pt(1, 10), Pt(0, 10)}),
		// A crescent-like concave polygon.
		MustPolygon([]Point{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(3, 1), Pt(1, 1), Pt(0, 4)}),
	}
	for i, pg := range shapes {
		p := pg.InteriorPoint()
		if !pg.ContainsPointStrict(p) {
			t.Errorf("shape %d: interior point %v not strictly inside", i, p)
		}
	}
}

func TestInteriorPointRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		pg := randomStarPolygon(rng, 3+rng.Intn(12))
		p := pg.InteriorPoint()
		if !pg.ContainsPointStrict(p) {
			t.Fatalf("trial %d: interior point %v not inside %v", trial, p, pg.Outer)
		}
	}
}

func TestInteriorPointWithHoles(t *testing.T) {
	pg := MustPolygon([]Point{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)})
	// Hole right where the convex-corner heuristic would land.
	if err := pg.AddHole([]Point{Pt(0.05, 0.05), Pt(2, 0.1), Pt(0.1, 2)}); err != nil {
		t.Fatal(err)
	}
	p := pg.InteriorPoint()
	if !pg.ContainsPointStrict(p) {
		t.Errorf("interior point %v swallowed by hole", p)
	}
}

func TestIsSimple(t *testing.T) {
	if !(Ring{Pt(0, 0), Pt(1, 0), Pt(1, 1)}).isSimple() {
		t.Error("triangle should be simple")
	}
	bowtie := Ring{Pt(0, 0), Pt(2, 2), Pt(2, 0), Pt(0, 2)}
	if bowtie.isSimple() {
		t.Error("bowtie should not be simple")
	}
	spike := Ring{Pt(0, 0), Pt(2, 0), Pt(1, 0), Pt(1, 1)}
	if spike.isSimple() {
		t.Error("ring with doubled-back spike should not be simple")
	}
	if (Ring{Pt(0, 0), Pt(1, 1)}).isSimple() {
		t.Error("two-vertex ring cannot be simple")
	}
}

func TestCentroid(t *testing.T) {
	if got := unitSquare().Outer.Centroid(); got != Pt(0.5, 0.5) {
		t.Errorf("square centroid = %v", got)
	}
	tri := Ring{Pt(0, 0), Pt(3, 0), Pt(0, 3)}
	if got := tri.Centroid(); got != Pt(1, 1) {
		t.Errorf("triangle centroid = %v", got)
	}
	degenerate := Ring{Pt(0, 0), Pt(1, 1), Pt(2, 2)}
	if got := degenerate.Centroid(); got != Pt(1, 1) {
		t.Errorf("degenerate centroid fell back incorrectly: %v", got)
	}
}

func TestClone(t *testing.T) {
	pg := MustPolygon([]Point{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)})
	if err := pg.AddHole([]Point{Pt(1, 1), Pt(2, 1), Pt(1, 2)}); err != nil {
		t.Fatal(err)
	}
	cp := pg.Clone()
	cp.Outer[0] = Pt(-100, -100)
	cp.Holes[0][0] = Pt(-100, -100)
	if pg.Outer[0] != Pt(0, 0) || pg.Holes[0][0] != Pt(1, 1) {
		t.Error("Clone should be deep")
	}
}

func TestAreaMatchesMonteCarlo(t *testing.T) {
	// Statistical cross-check of Area vs ContainsPoint on a concave shape.
	l := lShape()
	rng := rand.New(rand.NewSource(13))
	in := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if l.ContainsPoint(Pt(rng.Float64()*2, rng.Float64()*2)) {
			in++
		}
	}
	got := 4 * float64(in) / n // sample box area is 4
	if math.Abs(got-3) > 0.05 {
		t.Errorf("Monte Carlo area = %v, analytic 3", got)
	}
}
