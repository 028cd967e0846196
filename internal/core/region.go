package core

import "repro/internal/geom"

// Region is the query-shape contract the area-query algorithms need: an
// MBR for the traditional filter, containment for refinement, segment
// intersection for the published expansion rule, and an interior anchor
// for the seed. Prepared polygons (PolygonRegion), plain polygons and
// circles implement it; custom shapes can too.
type Region interface {
	Bounds() geom.Rect
	ContainsPoint(geom.Point) bool
	IntersectsSegment(geom.Segment) bool
	InteriorPoint() geom.Point
}

// RingViewIntersecter is implemented by Regions that can test intersection
// against a structure-of-arrays ring view (a packed Voronoi cell) exactly.
// Prepared polygons implement it. No query calls it: the strict rule traces
// a polygon's boundary (shell.go) and clips a custom region's cells one at a
// time (regionIntersectsRing); the benchmark module's geom probe still
// times it.
type RingViewIntersecter interface {
	IntersectsRingView(geom.RingView) bool
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

// CircleRegion returns the disk as a Region: a geom.Circle is one.
func CircleRegion(c geom.Circle) Region { return c }

// regionIntersectsRing reports whether region and the closed area bounded by
// the convex ring share a point: some vertex lies in the region, some edge
// meets it, or the ring contains it whole. It is exact for convex rings,
// which Voronoi cells are, and reads the ring in place, so it allocates
// nothing.
func regionIntersectsRing(region Region, ring geom.Ring) bool {
	for _, p := range ring {
		if region.ContainsPoint(p) {
			return true
		}
	}
	for i := range ring {
		j := i + 1
		if j == len(ring) {
			j = 0
		}
		if region.IntersectsSegment(geom.Seg(ring[i], ring[j])) {
			return true
		}
	}
	return geom.Polygon{Outer: ring}.ContainsPoint(region.InteriorPoint())
}
