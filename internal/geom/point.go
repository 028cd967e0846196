package geom

import (
	"fmt"
	"math"

	"repro/internal/robust"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product p·q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product p×q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Sqrt(p.Dist2(q)) }

// Dist2 returns the squared Euclidean distance between p and q. Use it when
// only comparisons are needed; it avoids the square root.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Equal reports exact coordinate equality.
func (p Point) Equal(q Point) bool { return p.X == q.X && p.Y == q.Y }

// Near reports whether p and q coincide within Eps.
func (p Point) Near(q Point) bool {
	return almostEqual(p.X, q.X) && almostEqual(p.Y, q.Y)
}

// Lerp returns the point p + t·(q-p).
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + t*(q.X-p.X), p.Y + t*(q.Y-p.Y)}
}

// Orientation classifies the turn a→b→c.
type Orientation int

// The three possible orientations of an ordered point triple.
const (
	Clockwise        Orientation = -1
	Collinear        Orientation = 0
	CounterClockwise Orientation = 1
)

// Orient returns the exact orientation of the triple (a, b, c):
// CounterClockwise if c lies to the left of the directed line a→b,
// Clockwise if to the right, Collinear otherwise. The result is exact;
// near-degenerate cases fall back to arbitrary-precision arithmetic.
func Orient(a, b, c Point) Orientation {
	return Orientation(robust.Orient2D(a.X, a.Y, b.X, b.Y, c.X, c.Y))
}

// Midpoint returns the midpoint of p and q.
func Midpoint(p, q Point) Point {
	return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2}
}
