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
// then the exact edge loop — over the edges of p's row when the grid lists
// them, over every edge otherwise.
func (pp *PreparedPolygon) ContainsPoint(p Point) bool {
	if !pp.bound.ContainsPoint(p) {
		return false
	}
	if g := pp.grid.Load(); g != nil {
		c, row := g.lookup(p)
		if c != cellBoundary {
			return c == cellInside
		}
		if row >= 0 && g.lists != nil {
			odd := false
			for _, i := range g.rowEdges(row) {
				if e := &pp.edges[i]; e.inRange(p) && e.holds(p, &odd) {
					return true
				}
			}
			return odd
		}
	} else if pp.exactTests.Load() < gridAfter && pp.exactTests.Add(1) == gridAfter {
		pp.grid.Store(newContainGrid(pp))
	}
	return pp.containsExact(p)
}

// containsExact is the containment test for a point inside the MBR: the
// loop over every edge, which decides while there is no grid, where the
// grid has no lists, and for the grid builder's probes.
func (pp *PreparedPolygon) containsExact(p Point) bool {
	odd := false
	for i := range pp.edges {
		if e := &pp.edges[i]; e.inRange(p) && e.holds(p, &odd) {
			return true
		}
	}
	return odd
}

// inRange reports whether e can hold p or cross its rightward ray, by its
// bounding intervals alone: either needs p.Y within e's y-span and e not
// entirely left of p.
func (e *preparedEdge) inRange(p Point) bool {
	return e.bb.MinY <= p.Y && p.Y <= e.bb.MaxY && p.X <= e.bb.MaxX
}

// holds is the share of the containment test of an edge in range of p, the
// boundary check and the ray-crossing count fused: it reports whether p
// lies on e (the boundary is contained: closed polygon) and flips odd when
// e crosses p's rightward ray.
func (e *preparedEdge) holds(p Point, odd *bool) bool {
	// In range, p is in e's bounding box unless it is left of it.
	if e.bb.MinX <= p.X && Orient(e.a, e.b, p) == Collinear {
		return true
	}
	// Ray-crossing accumulation (half-open rule on Y).
	if (e.a.Y > p.Y) == (e.b.Y > p.Y) {
		return false
	}
	lo, hi := e.a, e.b
	if lo.Y > hi.Y {
		lo, hi = hi, lo
	}
	if Orient(lo, hi, p) == CounterClockwise {
		*odd = !*odd
	}
	return false
}

// TouchesBoundary reports whether the closed segment shares at least one
// point with the polygon's boundary (an edge of any ring): MBR reject,
// per-edge bounding-box gate, exact segment test — no containment scan. The
// edges are those near the segment's box when the grid can tell, so a
// segment over cells no edge touches is answered without an exact test.
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
	var buf [nearMax]uint16
	if n, ok := pp.near(sb, &buf); ok {
		for _, i := range buf[:n] {
			if e := &pp.edges[i]; e.bb.Intersects(sb) && Seg(e.a, e.b).Intersects(s) {
				return true
			}
		}
		return false
	}
	for i := range pp.edges {
		if e := &pp.edges[i]; e.bb.Intersects(sb) && Seg(e.a, e.b).Intersects(s) {
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
// region bounded by the ring v views, a cell of a packed arena. No query
// calls it: the strict rule on a polygon walks the boundary instead, and
// only the benchmark's probes still time it. It decides as Polygon.IntersectsRing
// does (edge crossings, then vertex containment both ways) but reuses the
// cached polygon MBR, the prepared containment test and the edges near the
// ring's box (per-edge bounding boxes when the grid cannot tell), and reads
// the packed coordinate slices directly, with zero allocation.
func (pp *PreparedPolygon) IntersectsRingView(v RingView) bool {
	if v.Len() == 0 {
		return false
	}
	rb := v.Bounds()
	if !pp.bound.Intersects(rb) {
		return false
	}
	// Boundary contact first, so a disjoint ring (the common
	// strict-expansion reject) costs no containment scans.
	var buf [nearMax]uint16
	if n, ok := pp.near(rb, &buf); ok {
		for _, i := range buf[:n] {
			if e := &pp.edges[i]; e.bb.Intersects(rb) && e.crosses(v) {
				return true
			}
		}
	} else {
		for i := range pp.edges {
			if e := &pp.edges[i]; e.bb.Intersects(rb) && e.crosses(v) {
				return true
			}
		}
	}
	// No boundary contact: the shapes are nested or disjoint, and one
	// containment probe each way decides which.
	if pp.ContainsPoint(v.At(0)) {
		return true // ring inside the polygon
	}
	// A ring of the polygon inside the ring: untouched, it lies inside or
	// outside whole, so its first vertex decides. A hole can be the only
	// one when it is astray, outside the outer ring.
	if v.ContainsPoint(pp.pg.Outer[0]) {
		return true
	}
	for _, h := range pp.pg.Holes {
		if len(h) > 0 && v.ContainsPoint(h[0]) {
			return true
		}
	}
	return false
}

// crosses reports whether e shares a point with an edge of the ring.
func (e *preparedEdge) crosses(v RingView) bool {
	s := Seg(e.a, e.b)
	for j, k := v.Len()-1, 0; k < v.Len(); j, k = k, k+1 {
		if s.Intersects(Seg(v.At(j), v.At(k))) {
			return true
		}
	}
	return false
}
