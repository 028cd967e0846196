package geom

import (
	"math"
	"testing"
)

// FuzzLiteralMethodsReturn calls every exported method of the literal
// shapes a caller can build without a constructor — a Polygon (its outer
// ring a Ring of its own), a Circle, and the prepared form of the polygon —
// on whatever the bytes and floats spell, NaN and ±Inf included, and asks
// only that each returns. What a method answers on a literal NewPolygon
// would refuse is unspecified; every query refuses such a literal before
// it reaches one.
func FuzzLiteralMethodsReturn(f *testing.F) {
	inf := math.Inf(1)
	triangle := fuzzBytes(Pt(0, 0), Pt(1, 0), Pt(0.5, 1))
	f.Add(triangle, uint8(0), uint8(fuzzRaw), 0.25, 0.25, 0.75, 0.5, 0.5, 0.5, 0.25)
	f.Add(fuzzBytes(Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1), Pt(0.25, 0.25), Pt(0.5, 0.25), Pt(0.5, 0.5)),
		uint8(4), uint8(fuzzRaw), 0.375, 0.3, 2.0, 0.3, 0.0, 0.0, inf)
	// Two literals on which IntersectsSegment reached the exact orientation
	// predicate with an infinite coordinate, which big.Rat cannot hold: a
	// two-vertex ring reaching +Inf, and a valid triangle against a segment
	// ending at -Inf.
	f.Add(fuzzBytes(Pt(0.75, 0.5), Pt(inf, 0)), uint8(0), uint8(fuzzRaw), 0.0, 0.0, 0.75, 0.75, 0.5, 0.5, 1.0)
	f.Add(triangle, uint8(0), uint8(fuzzRaw), 0.0, 0.25, 1.0, -inf, 0.5, 0.5, 1.0)
	f.Fuzz(func(t *testing.T, data []byte, holeAt, mode uint8, x0, y0, x1, y1, cx, cy, r float64) {
		pg := fuzzPolygon(data, holeAt, mode)
		p, s := Pt(x0, y0), Seg(Pt(x0, y0), Pt(x1, y1))
		ring := Ring{Pt(x0, y0), Pt(x1, y1), Pt(cx, cy)}

		_, _ = pg.Area(), pg.Perimeter()
		_, _ = pg.Bounds(), pg.InteriorPoint()
		_, _ = pg.ContainsPoint(p), pg.ContainsPointStrict(p)
		_ = pg.IntersectsSegment(s)
		grown := pg.Clone()
		_ = grown.AddHole(ring)
		for _, r := range []Ring{pg.Outer, ring} {
			_, _, _ = r.Area(), r.SignedArea(), r.Perimeter()
			_, _ = r.Bounds(), r.Centroid()
		}

		pp := Prepare(pg)
		_, _ = pp.Bounds(), pp.InteriorPoint()
		_, _ = pp.ContainsPoint(p), pp.IntersectsSegment(s)

		c := Circle{Center: Pt(cx, cy), R: r}
		_, _ = c.Area(), c.Perimeter()
		_, _ = c.Bounds(), c.InteriorPoint()
		_, _ = c.ContainsPoint(p), c.IntersectsSegment(s)
	})
}
