package geom

import "sync/atomic"

// PreparedPolygon caches per-edge derived data (bounding boxes, flattened
// edge list across rings) so repeated predicates against the same polygon —
// the access pattern of an area query, which tests hundreds of candidates
// against one query polygon — skip most exact orientation calls through
// cheap interval rejects. Results are identical to the plain Polygon
// methods.
//
// A region that keeps answering containment tests builds, once, a
// face-classification grid (containGrid) that decides most of them without
// the edge loop. It holds atomics for that: use it only through the pointer
// Prepare returns.
type PreparedPolygon struct {
	pg       Polygon
	bound    Rect
	interior Point
	edges    []preparedEdge

	// exactTests counts containment tests answered by the edge loop while
	// grid is nil, up to gridAfter; the goroutine whose test is the
	// gridAfter-th builds the grid and publishes it. Everyone else keeps
	// using the edge loop until the pointer appears (or forever, when the
	// build refuses), so the steady state is one atomic load.
	exactTests atomic.Int32
	grid       atomic.Pointer[containGrid]
}

type preparedEdge struct {
	a, b Point
	bb   Rect
}

// Prepare returns a PreparedPolygon for pg. pg must not be mutated while
// the prepared form is in use.
func Prepare(pg Polygon) *PreparedPolygon {
	pp := &PreparedPolygon{pg: pg, bound: pg.Bounds(), interior: pg.InteriorPoint()}
	add := func(r Ring) bool {
		for i := range r {
			a, b := r[i], r[(i+1)%len(r)]
			pp.edges = append(pp.edges, preparedEdge{a: a, b: b, bb: NewRect(a.X, a.Y, b.X, b.Y)})
		}
		return true
	}
	pg.rings(add)
	return pp
}

// Polygon returns the underlying polygon.
func (pp *PreparedPolygon) Polygon() Polygon { return pp.pg }

// Bounds returns the polygon's MBR.
func (pp *PreparedPolygon) Bounds() Rect { return pp.bound }

// ContainsPoint reports whether p lies in the closed polygon: MBR reject,
// then the grid's verdict when there is one and p's cell touches no edge,
// then the exact edge loop.
func (pp *PreparedPolygon) ContainsPoint(p Point) bool {
	if !pp.bound.ContainsPoint(p) {
		return false
	}
	if g := pp.grid.Load(); g != nil {
		if c := g.lookup(p); c != cellBoundary {
			return c == cellInside
		}
	} else if pp.exactTests.Load() < gridAfter && pp.exactTests.Add(1) == gridAfter {
		pp.grid.Store(newContainGrid(pp))
	}
	return pp.containsExact(p)
}

// containsExact is the containment test for a point inside the MBR. It
// fuses the boundary check and the ray-crossing count into a single pass
// over the edge list, consulting the exact orientation predicate only for
// edges whose bounding interval makes them relevant.
func (pp *PreparedPolygon) containsExact(p Point) bool {
	odd := false
	for i := range pp.edges {
		e := &pp.edges[i]
		// On-edge test, gated by the edge bounding box.
		if e.bb.ContainsPoint(p) {
			if Orient(e.a, e.b, p) == Collinear {
				return true // boundary is contained (closed polygon)
			}
		}
		// Ray-crossing accumulation (half-open rule on Y).
		if (e.a.Y > p.Y) == (e.b.Y > p.Y) {
			continue
		}
		if e.bb.MaxX < p.X {
			continue // edge entirely left of the rightward ray
		}
		if e.a.Y < e.b.Y {
			if Orient(e.a, e.b, p) == CounterClockwise {
				odd = !odd
			}
		} else {
			if Orient(e.b, e.a, p) == CounterClockwise {
				odd = !odd
			}
		}
	}
	return odd
}

// TouchesBoundary reports whether the closed segment shares at least one
// point with the polygon's boundary (an edge of any ring): MBR reject,
// per-edge bounding-box gate, exact segment test — no containment scan.
//
// For a segment with an endpoint outside the closed polygon this is the
// whole of IntersectsSegment: a segment that meets no edge lies in one face
// of the polygon, and that face is then the outside. The Voronoi BFS tests
// only such segments (see the README's "Expansion rules").
//
//vaq:noalloc
func (pp *PreparedPolygon) TouchesBoundary(s Segment) bool {
	sb := s.Bounds()
	if !pp.bound.Intersects(sb) {
		return false
	}
	for i := range pp.edges {
		e := &pp.edges[i]
		if e.bb.Intersects(sb) && s.Intersects(Seg(e.a, e.b)) {
			return true
		}
	}
	return false
}

// IntersectsSegment reports whether the closed segment shares at least one
// point with the closed polygon. Boundary contact first; a segment that
// touches no edge lies in one face, so one endpoint decides.
func (pp *PreparedPolygon) IntersectsSegment(s Segment) bool {
	return pp.TouchesBoundary(s) || pp.ContainsPoint(s.A)
}

// InteriorPoint returns a point strictly inside the polygon
// (Polygon.InteriorPoint, computed once by Prepare).
func (pp *PreparedPolygon) InteriorPoint() Point { return pp.interior }

// IntersectsRingView reports whether the polygon intersects the closed
// region bounded by the ring v views — the strict expansion rule's hot
// test, over a cell of the packed arena. It decides as Polygon.IntersectsRing
// does (edge crossings, then vertex containment both ways) but reuses the
// cached polygon MBR, the prepared containment test and per-edge bounding
// boxes to skip edges far from the ring, and reads the packed coordinate
// slices directly, with zero allocation.
func (pp *PreparedPolygon) IntersectsRingView(v RingView) bool {
	n := v.Len()
	if n == 0 {
		return false
	}
	rb := v.Bounds()
	if !pp.bound.Intersects(rb) {
		return false
	}
	// Boundary contact first: per-edge boxes skip edges far from the ring,
	// so a disjoint ring (the common strict-expansion reject) costs one
	// box compare per edge and no containment scans.
	for i := range pp.edges {
		e := &pp.edges[i]
		if !e.bb.Intersects(rb) {
			continue
		}
		s := Seg(e.a, e.b)
		for j := 0; j < n; j++ {
			k := j + 1
			if k == n {
				k = 0
			}
			if s.Intersects(Seg(v.At(j), v.At(k))) {
				return true
			}
		}
	}
	// No boundary contact: the shapes are nested or disjoint, and one
	// containment probe each way decides which.
	if pp.ContainsPoint(v.At(0)) {
		return true // ring inside the polygon
	}
	// Polygon inside the ring (edges[0].a is an outer-ring vertex).
	return v.ContainsPoint(pp.edges[0].a)
}

// IntersectsRect reports whether the closed polygon and the closed
// rectangle share at least one point (used by the strict expansion rule
// to discard Voronoi cells by bounding box, so it is hot). It mirrors
// Polygon.IntersectsRect — rect corner inside polygon, polygon vertex
// inside rect, or crossing edges — on the cached MBR, prepared
// containment and per-edge boxes.
func (pp *PreparedPolygon) IntersectsRect(r Rect) bool {
	if !pp.bound.Intersects(r) {
		return false
	}
	if r.ContainsRect(pp.bound) {
		return true // rect swallows the polygon (vertices included)
	}
	// Boundary contact first (cheap per-edge box gate); containment only
	// when no edge touches the rect.
	for i := range pp.edges {
		e := &pp.edges[i]
		if !e.bb.Intersects(r) {
			continue
		}
		if r.ContainsPoint(e.a) || r.ContainsPoint(e.b) {
			return true
		}
		if Seg(e.a, e.b).IntersectsRect(r) {
			return true
		}
	}
	// No boundary contact: the rect lies entirely in one face of the
	// polygon arrangement (inside, inside a hole, or outside); one corner
	// decides.
	return pp.ContainsPoint(Pt(r.MinX, r.MinY))
}
