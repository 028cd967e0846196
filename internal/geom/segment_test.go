package geom

import (
	"math/rand"
	"testing"
)

func TestSegmentIntersectsTable(t *testing.T) {
	tests := []struct {
		name string
		s, u Segment
		want bool
	}{
		{"proper cross", Seg(Pt(0, 0), Pt(2, 2)), Seg(Pt(0, 2), Pt(2, 0)), true},
		{"disjoint parallel", Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(0, 1), Pt(1, 1)), false},
		{"shared endpoint", Seg(Pt(0, 0), Pt(1, 1)), Seg(Pt(1, 1), Pt(2, 0)), true},
		{"T junction", Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(1, 0), Pt(1, 1)), true},
		{"collinear overlap", Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(1, 0), Pt(3, 0)), true},
		{"collinear disjoint", Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(2, 0), Pt(3, 0)), false},
		{"collinear touch", Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(1, 0), Pt(2, 0)), true},
		{"near miss", Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(0.5, 1e-9), Pt(1, 1)), false},
		{"zero-length on segment", Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(1, 0), Pt(1, 0)), true},
		{"zero-length off segment", Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(1, 1), Pt(1, 1)), false},
		{"both zero-length equal", Seg(Pt(1, 1), Pt(1, 1)), Seg(Pt(1, 1), Pt(1, 1)), true},
		{"both zero-length distinct", Seg(Pt(1, 1), Pt(1, 1)), Seg(Pt(2, 2), Pt(2, 2)), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.s.Intersects(tc.u); got != tc.want {
				t.Errorf("Intersects = %v, want %v", got, tc.want)
			}
			if got := tc.u.Intersects(tc.s); got != tc.want {
				t.Errorf("Intersects (swapped) = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestSegmentIntersectsProper(t *testing.T) {
	cross := Seg(Pt(0, 0), Pt(2, 2))
	if !cross.IntersectsProper(Seg(Pt(0, 2), Pt(2, 0))) {
		t.Error("proper crossing not detected")
	}
	if cross.IntersectsProper(Seg(Pt(2, 2), Pt(3, 0))) {
		t.Error("endpoint touch should not be proper")
	}
	if cross.IntersectsProper(Seg(Pt(1, 1), Pt(3, 3))) {
		t.Error("collinear overlap should not be proper")
	}
}

func TestSegmentContainsPoint(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(4, 4))
	if !s.ContainsPoint(Pt(2, 2)) || !s.ContainsPoint(Pt(0, 0)) || !s.ContainsPoint(Pt(4, 4)) {
		t.Error("points on segment should be contained")
	}
	if s.ContainsPoint(Pt(5, 5)) {
		t.Error("collinear point beyond endpoint should not be contained")
	}
	if s.ContainsPoint(Pt(2, 2.5)) {
		t.Error("off-line point should not be contained")
	}
}

func TestIntersectionPoint(t *testing.T) {
	p, ok := Seg(Pt(0, 0), Pt(2, 2)).IntersectionPoint(Seg(Pt(0, 2), Pt(2, 0)))
	if !ok || p != Pt(1, 1) {
		t.Errorf("crossing point = %v, %v", p, ok)
	}
	if _, ok := Seg(Pt(0, 0), Pt(1, 0)).IntersectionPoint(Seg(Pt(0, 1), Pt(1, 1))); ok {
		t.Error("disjoint segments should have no intersection point")
	}
	// Collinear overlap returns one shared point.
	p, ok = Seg(Pt(0, 0), Pt(2, 0)).IntersectionPoint(Seg(Pt(1, 0), Pt(3, 0)))
	if !ok {
		t.Fatal("collinear overlap should report a shared point")
	}
	if !Seg(Pt(0, 0), Pt(2, 0)).ContainsPoint(p) || !Seg(Pt(1, 0), Pt(3, 0)).ContainsPoint(p) {
		t.Errorf("reported point %v not on both segments", p)
	}
}

func TestSegmentDist2Point(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(4, 0))
	tests := []struct {
		p    Point
		want float64
	}{
		{Pt(2, 3), 9},
		{Pt(-3, 0), 9},
		{Pt(6, 0), 4},
		{Pt(2, 0), 0},
		{Pt(4, 0), 0},
	}
	for _, tc := range tests {
		if got := s.Dist2Point(tc.p); got != tc.want {
			t.Errorf("Dist2Point(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// Degenerate zero-length segment.
	z := Seg(Pt(1, 1), Pt(1, 1))
	if got := z.Dist2Point(Pt(4, 5)); got != 25 {
		t.Errorf("zero-length Dist2Point = %v, want 25", got)
	}
}

func TestSegmentIntersectsRandomizedSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		s := Seg(Pt(rng.Float64(), rng.Float64()), Pt(rng.Float64(), rng.Float64()))
		u := Seg(Pt(rng.Float64(), rng.Float64()), Pt(rng.Float64(), rng.Float64()))
		if s.Intersects(u) != u.Intersects(s) {
			t.Fatalf("asymmetric intersection: %v vs %v", s, u)
		}
		// Proper intersection implies intersection.
		if s.IntersectsProper(u) && !s.Intersects(u) {
			t.Fatalf("proper but not closed intersection: %v vs %v", s, u)
		}
		// If a crossing point is reported it must lie (nearly) on both.
		if p, ok := s.IntersectionPoint(u); ok {
			if s.Dist2Point(p) > 1e-12 || u.Dist2Point(p) > 1e-12 {
				t.Fatalf("intersection point %v too far from segments", p)
			}
		}
	}
}

func TestSegmentBounds(t *testing.T) {
	s := Seg(Pt(3, 1), Pt(0, 5))
	if got := s.Bounds(); got != NewRect(0, 1, 3, 5) {
		t.Errorf("Bounds = %v", got)
	}
}

// TestIntersectsEarlyOutKeepsTheTruthTable holds Intersects, which stops
// after two orientations when they put t strictly on one side of s, to the
// form that always computes all four — over every pair of segments on a
// 4 × 4 integer lattice, zero-length ones included, which reaches every
// combination of the four orientations that two segments can have.
func TestIntersectsEarlyOutKeepsTheTruthTable(t *testing.T) {
	allFour := func(s, t Segment) bool {
		o1, o2 := Orient(s.A, s.B, t.A), Orient(s.A, s.B, t.B)
		o3, o4 := Orient(t.A, t.B, s.A), Orient(t.A, t.B, s.B)
		return o1 != o2 && o3 != o4 ||
			o1 == Collinear && s.Bounds().ContainsPoint(t.A) ||
			o2 == Collinear && s.Bounds().ContainsPoint(t.B) ||
			o3 == Collinear && t.Bounds().ContainsPoint(s.A) ||
			o4 == Collinear && t.Bounds().ContainsPoint(s.B)
	}
	var lattice []Point
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			lattice = append(lattice, Pt(float64(x), float64(y)))
		}
	}
	reached := map[[4]Orientation]bool{}
	for _, a := range lattice {
		for _, b := range lattice {
			for _, c := range lattice {
				for _, d := range lattice {
					s, u := Seg(a, b), Seg(c, d)
					if got, want := s.Intersects(u), allFour(s, u); got != want {
						t.Fatalf("%v.Intersects(%v) = %v, the four-orientation form says %v", s, u, got, want)
					}
					reached[[4]Orientation{Orient(a, b, c), Orient(a, b, d), Orient(c, d, a), Orient(c, d, b)}] = true
				}
			}
		}
	}
	// The other 30 of the 3⁴ contradict themselves (two segments that cross
	// properly see each other's endpoints in opposite orders; three
	// collinear triples make the fourth); a 3 × 3 and a 6 × 6 lattice reach
	// the same 51.
	if len(reached) != 51 {
		t.Fatalf("%d orientation combinations reached, want 51", len(reached))
	}
}

// fourEdges is the segment–rectangle reference: an endpoint inside, else a
// bounding-box overlap and one of the rectangle's four edges met. The
// containment grid's tests hold its cell classes and edge lists to it.
func fourEdges(s Segment, r Rect) bool {
	if r.IsEmpty() {
		return false
	}
	if r.ContainsPoint(s.A) || r.ContainsPoint(s.B) {
		return true
	}
	if !s.Bounds().Intersects(r) {
		return false
	}
	c := r.Corners()
	for i := range c {
		if s.Intersects(Seg(c[i], c[(i+1)%4])) {
			return true
		}
	}
	return false
}
