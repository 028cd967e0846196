package geom

// Segment is the closed line segment between two endpoints.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{A: a, B: b} }

// Bounds returns the segment's bounding rectangle.
func (s Segment) Bounds() Rect {
	return NewRect(s.A.X, s.A.Y, s.B.X, s.B.Y)
}

// ContainsPoint reports whether p lies on the closed segment. The collinear
// test is exact; the range test is a closed bounding-box check which is
// sufficient for collinear points.
func (s Segment) ContainsPoint(p Point) bool {
	if Orient(s.A, s.B, p) != Collinear {
		return false
	}
	return s.Bounds().ContainsPoint(p)
}

// Intersects reports whether the two closed segments share at least one
// point. All degenerate configurations (shared endpoints, collinear overlap,
// zero-length segments) are handled exactly via robust orientation tests.
//
// t's endpoints are tried against s's line first: strictly on one side of
// it, t cannot reach s, and the other two orientations are never computed.
// A caller with a long and a short segment saves most with the long one as
// the receiver.
func (s Segment) Intersects(t Segment) bool {
	o1 := Orient(s.A, s.B, t.A)
	o2 := Orient(s.A, s.B, t.B)
	if o1 == o2 && o1 != Collinear {
		return false
	}
	o3 := Orient(t.A, t.B, s.A)
	o4 := Orient(t.A, t.B, s.B)

	if o1 != o2 && o3 != o4 {
		return true
	}
	// Collinear cases: an endpoint of one lies on the other.
	if o1 == Collinear && s.Bounds().ContainsPoint(t.A) {
		return true
	}
	if o2 == Collinear && s.Bounds().ContainsPoint(t.B) {
		return true
	}
	if o3 == Collinear && t.Bounds().ContainsPoint(s.A) {
		return true
	}
	if o4 == Collinear && t.Bounds().ContainsPoint(s.B) {
		return true
	}
	return false
}

// IntersectsProper reports whether the two open segments cross at a single
// interior point of both (no endpoint touching, no collinear overlap).
func (s Segment) IntersectsProper(t Segment) bool {
	o1 := Orient(s.A, s.B, t.A)
	o2 := Orient(s.A, s.B, t.B)
	o3 := Orient(t.A, t.B, s.A)
	o4 := Orient(t.A, t.B, s.B)
	return o1 != o2 && o3 != o4 &&
		o1 != Collinear && o2 != Collinear &&
		o3 != Collinear && o4 != Collinear
}

// IntersectionPoint returns a crossing point of the two segments when they
// intersect in exactly one point, computed in floating point. ok is false
// when the segments do not intersect or overlap collinearly.
func (s Segment) IntersectionPoint(t Segment) (Point, bool) {
	if !s.Intersects(t) {
		return Point{}, false
	}
	d1 := s.B.Sub(s.A)
	d2 := t.B.Sub(t.A)
	denom := d1.Cross(d2)
	if denom == 0 {
		// Parallel or collinear overlap: report a shared endpoint if any.
		switch {
		case t.ContainsPoint(s.A):
			return s.A, true
		case t.ContainsPoint(s.B):
			return s.B, true
		case s.ContainsPoint(t.A):
			return t.A, true
		case s.ContainsPoint(t.B):
			return t.B, true
		}
		return Point{}, false
	}
	u := t.A.Sub(s.A).Cross(d2) / denom
	return s.A.Add(d1.Scale(u)), true
}

// Dist2Point returns the squared distance from p to the closest point of the
// segment.
func (s Segment) Dist2Point(p Point) float64 {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 == 0 {
		return p.Dist2(s.A)
	}
	t := p.Sub(s.A).Dot(d) / l2
	switch {
	case t < 0:
		t = 0
	case t > 1:
		t = 1
	}
	proj := s.A.Add(d.Scale(t))
	return p.Dist2(proj)
}
