package voronoi

import "repro/internal/geom"

// CellArena packs every clipped Voronoi cell of a point set into one
// contiguous structure-of-arrays vertex store: flat xs/ys coordinate
// slices and int32 ring offsets. It is built once at diagram construction and then read
// with zero per-visit allocation — Ring returns a view over the packed
// slices.
//
// Rings are stored exactly as CellFromNeighbors clips them (the builders
// share its clipping code path), so arena reads and per-call cell
// construction agree bit-for-bit. A degenerate (empty) cell occupies zero
// vertices.
//
// A CellArena is immutable after construction and safe for concurrent
// readers.
type CellArena struct {
	xs, ys []float64
	offs   []int32 // one per cell, plus one; ring i is [offs[i], offs[i+1])
}

// BuildCellArena clips every cell of d once and packs the rings, each the
// ring CellFromNeighbors clips for its site.
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
		xs:   make([]float64, 0, 6*n),
		ys:   make([]float64, 0, 6*n),
		offs: append(make([]int32, 0, n+1), 0),
	}
}

// pushRing packs ring as the next cell; an empty ring packs zero vertices.
func (a *CellArena) pushRing(ring []geom.Point) {
	for _, p := range ring {
		a.xs = append(a.xs, p.X)
		a.ys = append(a.ys, p.Y)
	}
	a.offs = append(a.offs, int32(len(a.xs)))
}

// Bytes returns the arena's retained memory in bytes (coordinate slices
// and offsets) — the flat layout's whole cost.
func (a *CellArena) Bytes() int {
	return 8*(len(a.xs)+len(a.ys)) + 4*len(a.offs)
}

// Ring returns a zero-allocation view of cell i's ring (empty view for a
// degenerate cell). The view aliases the arena and must not be modified.
//
//vaq:noalloc
func (a *CellArena) Ring(i int) geom.RingView {
	lo, hi := a.offs[i], a.offs[i+1]
	return geom.RingView{XS: a.xs[lo:hi], YS: a.ys[lo:hi]}
}
