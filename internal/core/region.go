package core

import "repro/internal/geom"

// Region is the query-shape contract the area-query algorithms need: an
// MBR for the traditional filter, containment for refinement, segment
// intersection for the published expansion rule, and an interior anchor
// for the seed. Polygons (via PolygonRegion) and circles (via
// CircleRegion) implement it; custom shapes can too.
type Region interface {
	Bounds() geom.Rect
	ContainsPoint(geom.Point) bool
	IntersectsSegment(geom.Segment) bool
	InteriorPoint() geom.Point
}

// RingViewIntersecter is optionally implemented by Regions that can test
// intersection against a structure-of-arrays ring view (a packed Voronoi
// cell) exactly; the strict expansion rule's cell tests use it when
// present and fall back to a generic vertex/edge/containment sweep over the
// view otherwise (exact for convex rings, which Voronoi cells are).
// Prepared polygons implement it, but their strict queries trace the
// boundary instead (shell.go), so no cell test reaches it.
type RingViewIntersecter interface {
	IntersectsRingView(geom.RingView) bool
}

// RectIntersecter is optionally implemented by Regions that can test
// intersection against a rectangle exactly; the strict expansion rule uses
// it to reject whole Voronoi cells by their precomputed bounding boxes
// before building the exact cell ring. Circles implement it; prepared
// polygons do not, since their strict queries test no cell.
type RectIntersecter interface {
	IntersectsRect(geom.Rect) bool
}

// BoundaryToucher is optionally implemented by Regions that can test a
// segment against their boundary alone, without deciding containment. The
// published expansion rule uses it for its segment tests, all of which
// start at a point the BFS has just found outside the region; there
// TouchesBoundary(s) must equal IntersectsSegment(s). Prepared polygons
// implement it.
type BoundaryToucher interface {
	TouchesBoundary(geom.Segment) bool
}

// PolygonRegion wraps a polygon as a Region with prepared-predicate speed.
func PolygonRegion(pg geom.Polygon) Region { return geom.Prepare(pg) }

// Polygons prepares a polygon slice as a Region batch.
func Polygons(areas []geom.Polygon) []Region {
	regions := make([]Region, len(areas))
	for i, area := range areas {
		regions[i] = PolygonRegion(area)
	}
	return regions
}

// CircleRegion wraps a disk as a Region.
func CircleRegion(c geom.Circle) Region { return circleRegion{c} }

type circleRegion struct{ c geom.Circle }

// Circle returns the underlying disk, mirroring
// PreparedPolygon.Polygon: the accessor the wire codec recovers the exact
// geometry through.
func (r circleRegion) Circle() geom.Circle { return r.c }

func (r circleRegion) Bounds() geom.Rect                     { return r.c.Bounds() }
func (r circleRegion) ContainsPoint(p geom.Point) bool       { return r.c.ContainsPoint(p) }
func (r circleRegion) IntersectsSegment(s geom.Segment) bool { return r.c.IntersectsSegment(s) }
func (r circleRegion) IntersectsRect(rect geom.Rect) bool    { return r.c.IntersectsRect(rect) }
func (r circleRegion) InteriorPoint() geom.Point             { return r.c.InteriorPoint() }

// regionIntersectsRingView reports whether region and the closed area
// bounded by the packed ring v share a point, using RingViewIntersecter
// when available and a generic vertex/edge/containment test otherwise
// (exact for convex rings, which Voronoi cells are). It reads the arena
// slices directly, so custom regions such as circles allocate nothing.
func regionIntersectsRingView(region Region, v geom.RingView) bool {
	n := v.Len()
	if n == 0 {
		return false
	}
	if ri, ok := region.(RingViewIntersecter); ok {
		return ri.IntersectsRingView(v)
	}
	for i := 0; i < n; i++ {
		if region.ContainsPoint(v.At(i)) {
			return true
		}
	}
	for i := 0; i < n; i++ {
		j := i + 1
		if j == n {
			j = 0
		}
		if region.IntersectsSegment(geom.Seg(v.At(i), v.At(j))) {
			return true
		}
	}
	// Ring may contain the region entirely.
	return v.ContainsPoint(region.InteriorPoint())
}
