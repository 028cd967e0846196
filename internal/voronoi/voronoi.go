// Package voronoi exposes the Voronoi diagram of a point set as the dual of
// its Delaunay triangulation (package delaunay).
//
// The area-query algorithm needs two things from the diagram: the Voronoi
// neighbors VN(P, p) of a site — exactly its Delaunay neighbors (Property 4:
// the structures are dual), so they are read off the triangulation — and,
// for the strict expansion variant and for rendering, the cell polygon of a
// site, clipped to a bounding rectangle. Engines clip one cell at a time,
// when a query needs it (CellFromNeighbors); a CellArena packs every cell at
// once.
package voronoi

import (
	"repro/internal/delaunay"
	"repro/internal/geom"
)

// Diagram is the Voronoi diagram of a triangulation's sites, clipped to a
// rectangle; FromTriangulation says where its cells are exact. It is
// immutable and safe for concurrent readers.
type Diagram struct {
	tri    *delaunay.Triangulation
	bounds geom.Rect
}

// FromTriangulation wraps a triangulation without rebuilding it, with cells
// clipped to bounds. Its rings are a fenced build's with the fence sites
// dropped (delaunay.Build), so a cell is exact inside the points' bounding
// rectangle grown by (w+h)/4 on every side, for a w×h rectangle: every
// location there lies within 1.5(w+h) of every site and more than 2(w+h)
// from every fence site, so a bisector the dropped fence stood for bounds no
// cell there (see package delaunay's fence lemma). Beyond it, two hull sites
// whose edge the fence replaced may both claim a location.
func FromTriangulation(t *delaunay.Triangulation, bounds geom.Rect) *Diagram {
	return &Diagram{tri: t, bounds: bounds}
}

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

// CellFromNeighbors computes the Voronoi cell of site given its Voronoi
// neighbors pts[nbrs[0]], pts[nbrs[1]], ..., clipped to bounds — the
// construction Cell makes, for callers (such as the engines' data layer)
// that hold the topology themselves. It clips into ring and tmp, which it
// reuses as two ping-pong buffers (nil ones allocate), and returns the cell
// and the other buffer for the next call; an empty cell has no vertices.
func CellFromNeighbors(ring, tmp []geom.Point, site geom.Point, nbrs []int32, pts []geom.Point, bounds geom.Rect) (cell, spare []geom.Point) {
	corners := bounds.Corners()
	ring = append(ring[:0], corners[:]...)
	for _, nb := range nbrs {
		tmp = clipHalfPlaneInto(tmp, ring, site, pts[nb])
		ring, tmp = tmp, ring
		if len(ring) == 0 {
			break
		}
	}
	return ring, tmp
}

// clipHalfPlaneInto clips ring to the half-plane of locations at least as
// close to site as to other (Sutherland–Hodgman against the perpendicular
// bisector), writing into dst[:0] — CellFromNeighbors and the arena builder
// ping-pong between two scratch buffers; a nil dst allocates. Cell and both
// share this one code path, so their rings are bit-identical.
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
