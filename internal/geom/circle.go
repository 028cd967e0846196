package geom

import "math"

// Circle is a closed disk: center plus radius. It implements the same
// predicate surface polygons offer, so the area-query engine can run
// radius queries through the identical BFS machinery.
type Circle struct {
	Center Point
	R      float64
}

// NewCircle returns the circle with the given center and radius; negative
// radii are clamped to zero.
func NewCircle(center Point, r float64) Circle {
	if r < 0 {
		r = 0
	}
	return Circle{Center: center, R: r}
}

// Bounds returns the circle's bounding rectangle.
func (c Circle) Bounds() Rect {
	return Rect{
		MinX: c.Center.X - c.R, MinY: c.Center.Y - c.R,
		MaxX: c.Center.X + c.R, MaxY: c.Center.Y + c.R,
	}
}

// Area returns πr².
func (c Circle) Area() float64 { return math.Pi * c.R * c.R }

// Perimeter returns the circumference 2πr.
func (c Circle) Perimeter() float64 { return 2 * math.Pi * c.R }

// ContainsPoint reports whether p lies in the closed disk and in its
// bounding rectangle. Bounds rounds the disk's extent, so a point exactly at
// distance R can fall one ulp outside it; requiring both gives membership
// one definition, the one the MBR filters of the traditional method and the
// brute-force scan apply first.
func (c Circle) ContainsPoint(p Point) bool {
	return c.Bounds().ContainsPoint(p) && c.Center.Dist2(p) <= c.R*c.R
}

// IntersectsSegment reports whether the closed segment shares at least one
// point with the closed disk.
func (c Circle) IntersectsSegment(s Segment) bool {
	return s.Dist2Point(c.Center) <= c.R*c.R
}

// InteriorPoint returns the center — always interior for r > 0.
func (c Circle) InteriorPoint() Point { return c.Center }
