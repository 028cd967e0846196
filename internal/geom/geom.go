// Package geom provides the planar geometry kernel used throughout the
// repository: points, segments, axis-aligned rectangles and simple polygons,
// together with the predicates the area-query algorithms rely on
// (point-in-polygon, segment/polygon intersection, orientation).
//
// All coordinates are float64, and the kernel has no tolerance: points are
// compared exactly (a ring drops only exactly repeated vertices), and the
// predicates that decide topology (orientation, in-circle) delegate to
// package robust so that degenerate inputs (collinear or cocircular points)
// are resolved exactly rather than by rounding luck.
package geom
