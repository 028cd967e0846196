// Package voronoi exposes the Voronoi diagram of a point set as the dual of
// its Delaunay triangulation (package delaunay).
//
// The area-query algorithm needs two things from the diagram: the Voronoi
// neighbors VN(P, p) of a site — exactly its Delaunay neighbors (Property 4:
// the structures are dual), so they are read off the triangulation — and,
// for the strict expansion variant and for rendering, the cell polygon of a
// site, clipped to a bounding rectangle. Engines take every cell at once,
// packed into a CellArena.
package voronoi

import (
	"fmt"

	"repro/internal/delaunay"
	"repro/internal/geom"
)

// Diagram is a Voronoi diagram over a fixed point set, valid within Bounds.
// It is immutable and safe for concurrent readers.
type Diagram struct {
	tri    *delaunay.Triangulation
	bounds geom.Rect
}

// New builds the Voronoi diagram of pts, with cells clipped to bounds.
// bounds should contain all points; it is also the universe for unbounded
// hull cells.
func New(pts []geom.Point, bounds geom.Rect) (*Diagram, error) {
	t, err := delaunay.Build(pts)
	if err != nil {
		return nil, fmt.Errorf("voronoi: %w", err)
	}
	return FromTriangulation(t, bounds), nil
}

// FromTriangulation wraps an existing triangulation without rebuilding it.
func FromTriangulation(t *delaunay.Triangulation, bounds geom.Rect) *Diagram {
	return &Diagram{tri: t, bounds: bounds}
}

// Triangulation returns the underlying Delaunay triangulation.
func (d *Diagram) Triangulation() *delaunay.Triangulation { return d.tri }

// NumSites returns the number of distinct sites.
func (d *Diagram) NumSites() int { return d.tri.NumSites() }

// Cell returns the Voronoi cell of site i clipped to the diagram bounds, as
// a counterclockwise ring. The cell is computed as the intersection of the
// bounding rectangle with the bisector half-planes toward each Voronoi
// neighbor, which is exact up to floating-point bisector crossings and
// needs no special-casing for unbounded hull cells.
func (d *Diagram) Cell(i int) geom.Ring {
	site := d.tri.Point(i)
	corners := d.bounds.Corners()
	ring := geom.Ring(corners[:])
	for _, nb := range d.tri.Neighbors(i) {
		ring = clipHalfPlaneInto(nil, ring, site, d.tri.Point(int(nb)))
		if len(ring) == 0 {
			return nil
		}
	}
	return ring
}

// CellFromNeighbors computes the Voronoi cell of a site given its Voronoi
// neighbors' coordinates, clipped to bounds — the same construction Cell
// uses, exposed for callers (such as the dynamic triangulation) that hold
// the topology themselves.
func CellFromNeighbors(site geom.Point, neighbors []geom.Point, bounds geom.Rect) geom.Ring {
	corners := bounds.Corners()
	ring := geom.Ring(corners[:])
	for _, nb := range neighbors {
		ring = clipHalfPlaneInto(nil, ring, site, nb)
		if len(ring) == 0 {
			return nil
		}
	}
	return ring
}

// clipHalfPlaneInto clips ring to the half-plane of locations at least as
// close to site as to other (Sutherland–Hodgman against the perpendicular
// bisector), writing into dst[:0] — the arena builder ping-pongs between two
// scratch buffers; a nil dst allocates. Cell and the arena builder share
// this one code path, so the arena's packed rings are bit-identical to the
// per-call rings.
func clipHalfPlaneInto(dst, ring []geom.Point, site, other geom.Point) []geom.Point {
	dst = dst[:0]
	for i := range ring {
		cur, next := ring[i], ring[(i+1)%len(ring)]
		curIn := cur.Dist2(site) <= cur.Dist2(other)
		nextIn := next.Dist2(site) <= next.Dist2(other)
		switch {
		case curIn && nextIn:
			dst = append(dst, next)
		case curIn && !nextIn:
			dst = append(dst, bisectorCross(cur, next, site, other))
		case !curIn && nextIn:
			dst = append(dst, bisectorCross(cur, next, site, other), next)
		}
	}
	return dst
}

// bisectorCross returns the crossing of segment a-b with the perpendicular
// bisector of site and other: solve |a+td-site|² = |a+td-other|² for t
// along d = b-a.
func bisectorCross(a, b, site, other geom.Point) geom.Point {
	dir := b.Sub(a)
	denom := 2 * dir.Dot(other.Sub(site))
	if denom == 0 {
		return a // segment parallel to the bisector; degenerate
	}
	t := (a.Dist2(other) - a.Dist2(site)) / denom
	return a.Add(dir.Scale(t))
}
