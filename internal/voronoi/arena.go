package voronoi

import "repro/internal/geom"

// CellArena packs every clipped Voronoi cell of a point set into one
// contiguous structure-of-arrays vertex store: flat xs/ys coordinate
// slices, int32 ring offsets, and per-cell bounding boxes packed four
// floats apiece. It is built once at diagram construction and then read
// with zero per-visit allocation — Ring returns a view over the packed
// slices.
//
// Rings are stored exactly as Diagram.Cell computes them (the builders
// share Cell's clipping code path), so arena reads and per-call cell
// construction agree bit-for-bit. A degenerate (empty) cell occupies zero
// vertices and an empty bounding box that intersects nothing.
//
// A CellArena is immutable after construction and safe for concurrent
// readers.
type CellArena struct {
	xs, ys []float64
	offs   []int32   // one per cell, plus one; ring i is [offs[i], offs[i+1])
	boxes  []float64 // 4 per cell: minX, minY, maxX, maxY
}

// BuildCellArena clips every cell of d once and packs the rings. The
// rings (and their order) are identical to calling d.Cell(i) for each
// site.
func BuildCellArena(d *Diagram) *CellArena {
	return cellArenaFromSites(d.NumSites(), d.bounds,
		func(id int64) geom.Point { return d.tri.Point(int(id)) },
		func(id int64) []int32 { return d.tri.Neighbors(int(id)) })
}

// cellArenaFromSites is the one arena builder: n sites, each cell clipped to
// clip by the bisector half-planes toward the site's Voronoi neighbors.
// site reports a site's coordinates; neighbors reports its neighbor ids in
// the order CellFromNeighbors would receive their coordinates, so packed
// rings match the per-call construction exactly. BuildCellArena reads
// them from the diagram's triangulation.
func cellArenaFromSites(
	n int,
	clip geom.Rect,
	site func(id int64) geom.Point,
	neighbors func(id int64) []int32,
) *CellArena {
	a := newCellArena(n)
	corners := clip.Corners()
	var ring, tmp []geom.Point
	for i := 0; i < n; i++ {
		s := site(int64(i))
		ring = append(ring[:0], corners[:]...)
		for _, nb := range neighbors(int64(i)) {
			tmp = clipHalfPlaneInto(tmp, ring, s, site(int64(nb)))
			ring, tmp = tmp, ring
			if len(ring) == 0 {
				break
			}
		}
		a.pushRing(ring)
	}
	return a
}

// newCellArena returns an empty arena pre-sized for n cells. The vertex
// capacity guess (6 per cell, the average Voronoi cell degree) avoids most
// growth reallocations during the build.
func newCellArena(n int) *CellArena {
	return &CellArena{
		xs:    make([]float64, 0, 6*n),
		ys:    make([]float64, 0, 6*n),
		offs:  append(make([]int32, 0, n+1), 0),
		boxes: make([]float64, 0, 4*n),
	}
}

// pushRing packs ring as the next cell, recording its bounding box. An
// empty ring packs zero vertices and an empty box (nothing intersects it).
func (a *CellArena) pushRing(ring []geom.Point) {
	if len(ring) == 0 {
		a.offs = append(a.offs, int32(len(a.xs)))
		e := geom.EmptyRect()
		a.boxes = append(a.boxes, e.MinX, e.MinY, e.MaxX, e.MaxY)
		return
	}
	minX, minY := ring[0].X, ring[0].Y
	maxX, maxY := minX, minY
	for _, p := range ring {
		a.xs = append(a.xs, p.X)
		a.ys = append(a.ys, p.Y)
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	a.offs = append(a.offs, int32(len(a.xs)))
	a.boxes = append(a.boxes, minX, minY, maxX, maxY)
}

// Bytes returns the arena's retained memory in bytes (coordinate slices,
// offsets and packed boxes) — the flat layout's whole cost.
func (a *CellArena) Bytes() int {
	return 8*(len(a.xs)+len(a.ys)+len(a.boxes)) + 4*len(a.offs)
}

// Ring returns a zero-allocation view of cell i's ring (empty view for a
// degenerate cell). The view aliases the arena and must not be modified.
//
//vaq:noalloc
func (a *CellArena) Ring(i int) geom.RingView {
	lo, hi := a.offs[i], a.offs[i+1]
	return geom.RingView{XS: a.xs[lo:hi], YS: a.ys[lo:hi]}
}
