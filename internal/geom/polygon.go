package geom

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Ring is a closed polygonal chain. The closing edge from the last vertex
// back to the first is implicit; callers should not repeat the first vertex.
type Ring []Point

// Polygon is a simple polygon, optionally with holes strictly inside its
// outer ring and apart from each other (AddHole). The area of the polygon is
// the interior of Outer minus the interiors of Holes; containment is closed
// (boundary points are contained). A Polygon written as a literal skips
// NewPolygon and AddHole; CheckPolygon tells whether they would build it.
type Polygon struct {
	Outer Ring
	Holes []Ring
}

// Validation errors returned by NewPolygon and AddHole.
var (
	ErrNonFinite      = errors.New("geom: polygon vertex has a NaN or infinite coordinate")
	ErrTooFewVertices = errors.New("geom: polygon ring needs at least 3 distinct vertices")
	ErrZeroArea       = errors.New("geom: polygon ring has zero area")
	ErrSelfIntersect  = errors.New("geom: polygon ring is self-intersecting")
)

// NewPolygon builds a polygon from an outer ring, normalizing it
// (consecutive duplicate vertices removed, explicit closing vertex dropped)
// and validating that it is a non-degenerate simple ring of finite
// vertices.
func NewPolygon(outer []Point) (Polygon, error) {
	ring, err := validRing(outer)
	if err != nil {
		return Polygon{}, err
	}
	return Polygon{Outer: slices.Clone(ring)}, nil
}

// CheckPolygon returns the error NewPolygon(pg.Outer) and then AddHole of
// each hole in order would, nil when they build pg: the one definition of a
// valid polygon. It allocates nothing for normalized rings, and normalizing
// a passed hole changes neither the edges it meets nor its first vertex.
func CheckPolygon(pg Polygon) error {
	outer, err := validRing(pg.Outer)
	for i := 0; err == nil && i < len(pg.Holes); i++ {
		_, err = checkHole(outer, pg.Holes[:i], pg.Holes[i])
	}
	return err
}

// validRing normalizes pts and validates the result. The finiteness check
// comes first: the exact predicates behind isSimple have no answer for a
// NaN or infinite coordinate.
func validRing(pts []Point) (Ring, error) {
	if !finitePoints(pts) {
		return nil, ErrNonFinite
	}
	ring := normalizeRing(pts)
	if len(ring) < 3 {
		return nil, ErrTooFewVertices
	}
	if !ring.isSimple() {
		return nil, ErrSelfIntersect
	}
	if ring.SignedArea() == 0 {
		return nil, ErrZeroArea
	}
	return ring, nil
}

// finitePoints reports whether every coordinate of pts is finite.
func finitePoints(pts []Point) bool {
	for _, p := range pts {
		// x-x is 0 for every finite x and NaN for NaN and ±Inf.
		if p.X-p.X != 0 || p.Y-p.Y != 0 {
			return false
		}
	}
	return true
}

// MustPolygon is NewPolygon that panics on invalid input; intended for
// tests and literals.
func MustPolygon(outer []Point) Polygon {
	pg, err := NewPolygon(outer)
	if err != nil {
		panic(fmt.Sprintf("geom: invalid polygon: %v", err))
	}
	return pg
}

// AddHole validates hole as a simple ring strictly inside the outer ring,
// meeting neither it nor another hole and nesting with none, and adds it:
// a hole that is not is ErrSelfIntersect. So every boundary point of the
// polygon has its interior on one side and its exterior on the other.
func (pg *Polygon) AddHole(hole []Point) error {
	ring, err := checkHole(pg.Outer, pg.Holes, hole)
	if err == nil {
		pg.Holes = append(pg.Holes, slices.Clone(ring))
	}
	return err
}

// checkHole is AddHole's check of hole against the rings outer and holes,
// returning hole normalized. Rings that do not meet are nested or apart,
// which one vertex tells.
func checkHole(outer Ring, holes []Ring, hole []Point) (Ring, error) {
	ring, err := validRing(hole)
	if err != nil {
		return nil, err
	}
	if ringsMeet(ring, outer) || !outer.crossesRay(ring[0]) {
		return nil, ErrSelfIntersect
	}
	for _, h := range holes {
		if ringsMeet(ring, h) || h.crossesRay(ring[0]) || ring.crossesRay(h[0]) {
			return nil, ErrSelfIntersect
		}
	}
	return ring, nil
}

// ringsMeet reports whether an edge of r meets an edge of s.
func ringsMeet(r, s Ring) bool {
	for i := range r {
		e := Seg(r[i], r[(i+1)%len(r)])
		for j := range s {
			if e.Intersects(Seg(s[j], s[(j+1)%len(s)])) {
				return true
			}
		}
	}
	return false
}

// normalizeRing drops a repeated closing vertex and consecutive duplicates,
// returning pts itself, trimmed, when it has no consecutive duplicates.
func normalizeRing(pts []Point) Ring {
	for len(pts) > 1 && pts[0] == pts[len(pts)-1] {
		pts = pts[:len(pts)-1]
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] == pts[i-1] {
			return slices.Compact(slices.Clone(pts))
		}
	}
	return pts
}

// rings iterates the outer ring then each hole.
func (pg Polygon) rings(fn func(Ring) bool) {
	if !fn(pg.Outer) {
		return
	}
	for _, h := range pg.Holes {
		if !fn(h) {
			return
		}
	}
}

// Bounds returns the polygon's minimum bounding rectangle (holes cannot
// extend it).
func (pg Polygon) Bounds() Rect { return pg.Outer.Bounds() }

// Area returns the area of the polygon: |outer| minus the hole areas.
func (pg Polygon) Area() float64 {
	a := math.Abs(pg.Outer.SignedArea())
	for _, h := range pg.Holes {
		a -= math.Abs(h.SignedArea())
	}
	return a
}

// Perimeter returns the total boundary length including hole boundaries.
func (pg Polygon) Perimeter() float64 {
	l := pg.Outer.Perimeter()
	for _, h := range pg.Holes {
		l += h.Perimeter()
	}
	return l
}

// ContainsPoint reports whether p lies in the closed polygon (boundary
// points count as inside; points inside a hole do not, but hole boundaries
// do).
func (pg Polygon) ContainsPoint(p Point) bool {
	if !pg.Bounds().ContainsPoint(p) {
		return false
	}
	on := false
	pg.rings(func(r Ring) bool {
		if r.onBoundary(p) {
			on = true
			return false
		}
		return true
	})
	if on {
		return true
	}
	inside := false
	pg.rings(func(r Ring) bool {
		if r.crossesRay(p) {
			inside = !inside
		}
		return true
	})
	return inside
}

// IntersectsSegment reports whether the closed segment shares at least one
// point with the closed polygon (endpoint inside, or edge crossing).
func (pg Polygon) IntersectsSegment(s Segment) bool {
	if !pg.Bounds().Intersects(s.Bounds()) {
		return false
	}
	if pg.ContainsPoint(s.A) || pg.ContainsPoint(s.B) {
		return true
	}
	hit := false
	pg.rings(func(r Ring) bool {
		for i := range r {
			e := Seg(r[i], r[(i+1)%len(r)])
			if s.Intersects(e) {
				hit = true
				return false
			}
		}
		return true
	})
	return hit
}

// InteriorPoint returns a point strictly inside the polygon's outer ring
// and outside all holes. The centroid is preferred when it qualifies — for
// area-query seeding a "fat" central anchor is far more robust than a point
// near a spike. Otherwise the classic "point in polygon interior"
// construction applies: take a convex vertex v; if the triangle
// (prev, v, next) is empty of other vertices its centroid is interior,
// otherwise the midpoint of v and the contained vertex farthest from the
// chord is interior. If holes swallow both candidates, it falls back to
// scanning midpoints of a vertical decomposition. A polygon with a NaN or
// infinite vertex has no interior point: it returns the zero Point.
func (pg Polygon) InteriorPoint() Point {
	finite := true
	pg.rings(func(r Ring) bool {
		finite = finitePoints(r)
		return finite
	})
	if !finite {
		return Point{}
	}
	if c := pg.Outer.Centroid(); pg.ContainsPointStrict(c) {
		return c
	}
	cand := pg.Outer.interiorPoint()
	if pg.ContainsPointStrict(cand) {
		return cand
	}
	// Fall back: cast a vertical line through each outer vertex x-midpoint
	// and take the midpoint of consecutive edge crossings that lies inside.
	b := pg.Bounds()
	n := len(pg.Outer)
	for i := 0; i < n; i++ {
		x := (pg.Outer[i].X + pg.Outer[(i+1)%n].X) / 2
		probe := Seg(Pt(x, b.MinY-1), Pt(x, b.MaxY+1))
		var ys []float64
		pg.rings(func(r Ring) bool {
			for j := range r {
				e := Seg(r[j], r[(j+1)%len(r)])
				if ip, ok := probe.IntersectionPoint(e); ok {
					ys = append(ys, ip.Y)
				}
			}
			return true
		})
		slices.Sort(ys)
		for j := 0; j+1 < len(ys); j++ {
			mid := Pt(x, (ys[j]+ys[j+1])/2)
			if pg.ContainsPointStrict(mid) {
				return mid
			}
		}
	}
	// Give up gracefully: the polygon centroid (may be on boundary for
	// pathological inputs, still usable as a query anchor).
	return pg.Outer.Centroid()
}

// ContainsPointStrict reports whether p lies strictly inside the polygon
// (boundary points excluded). The MBR reject comes first so a non-finite p
// — InteriorPoint's centroid, when a huge polygon's cross products
// overflow — never reaches the orientation predicate, which has no sign to
// give a NaN or ±Inf coordinate.
func (pg Polygon) ContainsPointStrict(p Point) bool {
	if !pg.Bounds().ContainsPoint(p) {
		return false
	}
	on := false
	pg.rings(func(r Ring) bool {
		if r.onBoundary(p) {
			on = true
			return false
		}
		return true
	})
	if on {
		return false
	}
	return pg.ContainsPoint(p)
}

// Clone returns a deep copy of the polygon.
func (pg Polygon) Clone() Polygon {
	out := Polygon{Outer: append(Ring(nil), pg.Outer...)}
	for _, h := range pg.Holes {
		out.Holes = append(out.Holes, append(Ring(nil), h...))
	}
	return out
}

// --- Ring methods ---

// Bounds returns the ring's minimum bounding rectangle.
func (r Ring) Bounds() Rect { return RectFromPoints(r...) }

// SignedArea returns the signed area: positive when the ring is
// counterclockwise.
func (r Ring) SignedArea() float64 {
	if len(r) < 3 {
		return 0
	}
	var s float64
	for i := range r {
		j := (i + 1) % len(r)
		s += r[i].Cross(r[j])
	}
	return s / 2
}

// Area returns the absolute enclosed area.
func (r Ring) Area() float64 { return math.Abs(r.SignedArea()) }

// Perimeter returns the total edge length.
func (r Ring) Perimeter() float64 {
	var l float64
	for i := range r {
		l += r[i].Dist(r[(i+1)%len(r)])
	}
	return l
}

// Centroid returns the area centroid of the ring (vertex mean when the area
// degenerates to zero).
func (r Ring) Centroid() Point {
	if len(r) == 0 {
		return Point{}
	}
	var cx, cy, a float64
	for i := range r {
		j := (i + 1) % len(r)
		cross := r[i].Cross(r[j])
		cx += (r[i].X + r[j].X) * cross
		cy += (r[i].Y + r[j].Y) * cross
		a += cross
	}
	if a == 0 {
		var sx, sy float64
		for _, p := range r {
			sx += p.X
			sy += p.Y
		}
		n := float64(len(r))
		return Point{sx / n, sy / n}
	}
	return Point{cx / (3 * a), cy / (3 * a)}
}

// isSimple reports whether no two non-adjacent edges intersect and adjacent
// edges meet only at their shared vertex. O(n²); intended for validation of
// small query polygons, not bulk data.
func (r Ring) isSimple() bool {
	n := len(r)
	if n < 3 {
		return false
	}
	for i := 0; i < n; i++ {
		ei := Seg(r[i], r[(i+1)%n])
		for j := i + 1; j < n; j++ {
			ej := Seg(r[j], r[(j+1)%n])
			adjacent := j == i+1 || (i == 0 && j == n-1)
			if adjacent {
				// Adjacent edges may only share the single common vertex;
				// collinear overlap makes the ring non-simple.
				if ei.IntersectsProper(ej) {
					return false
				}
				var shared, otherI, otherJ Point
				if j == i+1 {
					shared, otherI, otherJ = r[j], r[i], r[(j+1)%n]
				} else {
					shared, otherI, otherJ = r[0], r[(i+1)%n], r[j]
				}
				if Orient(otherI, shared, otherJ) == Collinear &&
					otherI.Sub(shared).Dot(otherJ.Sub(shared)) > 0 {
					return false // spike: edges double back over each other
				}
			} else if ei.Intersects(ej) {
				return false
			}
		}
	}
	return true
}

// onBoundary reports whether p lies on one of the ring's edges.
func (r Ring) onBoundary(p Point) bool {
	for i := range r {
		if Seg(r[i], r[(i+1)%len(r)]).ContainsPoint(p) {
			return true
		}
	}
	return false
}

// crossesRay counts edge crossings of the horizontal ray from p toward +X
// and reports whether the count is odd. The caller must have excluded
// boundary points. Vertex crossings are disambiguated with the half-open
// rule (an edge spans the ray iff exactly one endpoint is strictly above),
// with the side test done exactly via Orient.
func (r Ring) crossesRay(p Point) bool {
	odd := false
	n := len(r)
	for i := 0; i < n; i++ {
		a, b := r[i], r[(i+1)%n]
		if (a.Y > p.Y) == (b.Y > p.Y) {
			continue
		}
		// The edge spans the horizontal line through p. It crosses the
		// rightward ray iff the crossing x exceeds p.X, i.e. iff p is on the
		// appropriate side of the directed edge.
		if a.Y < b.Y {
			if Orient(a, b, p) == CounterClockwise {
				odd = !odd
			}
		} else {
			if Orient(b, a, p) == CounterClockwise {
				odd = !odd
			}
		}
	}
	return odd
}

// interiorPoint returns a point strictly inside a simple ring.
func (r Ring) interiorPoint() Point {
	n := len(r)
	if n == 0 {
		return Point{}
	}
	if n < 3 {
		return r[0]
	}
	// Find the lowest-then-leftmost vertex: it is convex.
	vi := 0
	for i, p := range r {
		if p.Y < r[vi].Y || (p.Y == r[vi].Y && p.X < r[vi].X) {
			vi = i
		}
	}
	prev := r[(vi-1+n)%n]
	v := r[vi]
	next := r[(vi+1)%n]

	// The triangle prev-v-next; if empty, its centroid is interior.
	want := Orient(prev, v, next)
	if want == Collinear {
		return Midpoint(prev, next)
	}
	inTri := func(q Point) bool {
		return Orient(prev, v, q) == want &&
			Orient(v, next, q) == want &&
			Orient(next, prev, q) == want
	}
	best := -1
	bestDist := -1.0
	for i, q := range r {
		if i == vi || q.Equal(prev) || q.Equal(next) {
			continue
		}
		if inTri(q) {
			d := Seg(prev, next).Dist2Point(q)
			if d > bestDist {
				bestDist = d
				best = i
			}
		}
	}
	if best < 0 {
		return Point{(prev.X + v.X + next.X) / 3, (prev.Y + v.Y + next.Y) / 3}
	}
	return Midpoint(v, r[best])
}
