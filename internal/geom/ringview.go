package geom

// RingView is a zero-allocation view of a closed ring whose vertices live
// in parallel coordinate slices — the structure-of-arrays layout of a
// packed cell arena (voronoi.CellArena). As with Ring, the closing edge
// from the last vertex back to the first is implicit.
//
// Every predicate mirrors the corresponding Ring/Polygon method exactly
// (same arithmetic in the same order), so a view over a ring's coordinates
// and the ring itself always agree bit-for-bit.
type RingView struct {
	XS, YS []float64
}

// Len returns the vertex count.
func (v RingView) Len() int { return len(v.XS) }

// At returns vertex i.
func (v RingView) At(i int) Point { return Point{v.XS[i], v.YS[i]} }

// Bounds returns the view's minimum bounding rectangle (EmptyRect for an
// empty view), equal to Ring.Bounds over the same vertices.
func (v RingView) Bounds() Rect {
	if len(v.XS) == 0 {
		return EmptyRect()
	}
	r := Rect{MinX: v.XS[0], MinY: v.YS[0], MaxX: v.XS[0], MaxY: v.YS[0]}
	for i := 1; i < len(v.XS); i++ {
		if v.XS[i] < r.MinX {
			r.MinX = v.XS[i]
		}
		if v.XS[i] > r.MaxX {
			r.MaxX = v.XS[i]
		}
		if v.YS[i] < r.MinY {
			r.MinY = v.YS[i]
		}
		if v.YS[i] > r.MaxY {
			r.MaxY = v.YS[i]
		}
	}
	return r
}

// ContainsPoint reports whether p lies in the closed region bounded by the
// view's ring — identical to (Polygon{Outer: ring}).ContainsPoint over the
// same vertices (boundary points are contained).
func (v RingView) ContainsPoint(p Point) bool {
	n := len(v.XS)
	if n == 0 {
		return false
	}
	// Boundary first, then the ray-crossing parity, exactly as the
	// single-ring polygon containment does.
	for i := 0; i < n; i++ {
		j := i + 1
		if j == n {
			j = 0
		}
		if Seg(v.At(i), v.At(j)).ContainsPoint(p) {
			return true
		}
	}
	odd := false
	for i := 0; i < n; i++ {
		j := i + 1
		if j == n {
			j = 0
		}
		a, b := v.At(i), v.At(j)
		if (a.Y > p.Y) == (b.Y > p.Y) {
			continue
		}
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
