package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(3, 4, 1, 2)
	want := Rect{1, 2, 3, 4}
	if r != want {
		t.Errorf("NewRect = %v, want %v", r, want)
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Error("EmptyRect should be empty")
	}
	if e.Area() != 0 || e.Width() != 0 || e.Height() != 0 {
		t.Error("empty rect should have zero measure")
	}
	r := NewRect(0, 0, 2, 3)
	if got := e.Union(r); got != r {
		t.Errorf("empty union r = %v, want %v", got, r)
	}
	if got := r.Union(e); got != r {
		t.Errorf("r union empty = %v, want %v", got, r)
	}
	if e.Intersects(r) || r.Intersects(e) {
		t.Error("empty rect intersects nothing")
	}
	if !r.ContainsRect(e) {
		t.Error("every rect contains the empty rect")
	}
}

func TestRectMeasures(t *testing.T) {
	r := NewRect(1, 2, 4, 6)
	if r.Width() != 3 || r.Height() != 4 {
		t.Errorf("width/height = %v/%v", r.Width(), r.Height())
	}
	if r.Area() != 12 {
		t.Errorf("area = %v", r.Area())
	}
	if r.Center() != Pt(2.5, 4) {
		t.Errorf("center = %v", r.Center())
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	for _, p := range []Point{Pt(0, 0), Pt(10, 10), Pt(5, 5), Pt(0, 10)} {
		if !r.ContainsPoint(p) {
			t.Errorf("should contain %v", p)
		}
	}
	for _, p := range []Point{Pt(-0.001, 5), Pt(5, 10.001), Pt(11, 11)} {
		if r.ContainsPoint(p) {
			t.Errorf("should not contain %v", p)
		}
	}
	if !r.ContainsRect(NewRect(1, 1, 9, 9)) {
		t.Error("should contain inner rect")
	}
	if r.ContainsRect(NewRect(5, 5, 11, 9)) {
		t.Error("should not contain overlapping rect")
	}
}

func TestRectIntersection(t *testing.T) {
	a := NewRect(0, 0, 4, 4)
	if !a.Intersects(NewRect(2, 2, 6, 6)) {
		t.Error("overlapping rects should intersect")
	}
	if a.Intersects(NewRect(5, 5, 7, 7)) {
		t.Error("disjoint rects should not intersect")
	}
	// Touching edges and corners intersect (closed semantics).
	if !a.Intersects(NewRect(4, 0, 8, 4)) || !a.Intersects(NewRect(4, 4, 5, 5)) {
		t.Error("edge- and corner-touching rects should intersect")
	}
	if a.Intersects(EmptyRect()) || EmptyRect().Intersects(a) {
		t.Error("nothing intersects the empty rect")
	}
}

func TestRectDist2Point(t *testing.T) {
	r := NewRect(0, 0, 2, 2)
	tests := []struct {
		p    Point
		want float64
	}{
		{Pt(1, 1), 0},      // inside
		{Pt(0, 0), 0},      // corner
		{Pt(3, 1), 1},      // right of
		{Pt(1, -2), 4},     // below
		{Pt(5, 6), 9 + 16}, // diagonal from corner (2,2)
	}
	for _, tc := range tests {
		if got := r.Dist2Point(tc.p); got != tc.want {
			t.Errorf("Dist2Point(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestRectExpand(t *testing.T) {
	r := NewRect(0, 0, 2, 2)
	if got := r.Expand(1); got != NewRect(-1, -1, 3, 3) {
		t.Errorf("Expand(1) = %v", got)
	}
	if got := r.Expand(-2); !got.IsEmpty() {
		t.Errorf("over-shrunk rect should be empty, got %v", got)
	}
}

func TestUnionCommutesAndContains(t *testing.T) {
	f := func(x1, y1, x2, y2, x3, y3, x4, y4 float64) bool {
		if anyBad(x1, y1, x2, y2, x3, y3, x4, y4) {
			return true
		}
		a := NewRect(x1, y1, x2, y2)
		b := NewRect(x3, y3, x4, y4)
		u := a.Union(b)
		return u == b.Union(a) && u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIntersectionSymmetricProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		a := NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		b := NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		if a.Intersects(b) != b.Intersects(a) {
			t.Fatalf("Intersects not symmetric for %v, %v", a, b)
		}
		overlap := math.Max(a.MinX, b.MinX) <= math.Min(a.MaxX, b.MaxX) &&
			math.Max(a.MinY, b.MinY) <= math.Min(a.MaxY, b.MaxY)
		if a.Intersects(b) != overlap {
			t.Fatalf("Intersects disagrees with the overlap of the extents for %v, %v", a, b)
		}
	}
}

func TestRectFromPoints(t *testing.T) {
	if !RectFromPoints().IsEmpty() {
		t.Error("no points -> empty rect")
	}
	r := RectFromPoints(Pt(1, 5), Pt(-2, 3), Pt(0, 7))
	if r != (Rect{-2, 3, 1, 7}) {
		t.Errorf("RectFromPoints = %v", r)
	}
}

func TestCornersOrder(t *testing.T) {
	c := NewRect(0, 0, 1, 1).Corners()
	ring := Ring(c[:])
	if ring.SignedArea() <= 0 {
		t.Error("corners should wind counterclockwise")
	}
}
