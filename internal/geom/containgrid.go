package geom

import (
	"math"
	"math/bits"
)

// gridSize is G, the side of the face-classification grid a prepared
// polygon builds over its MBR. Swept on the benchmark's mem-area workload
// (200k sites, 1 % ten-vertex stars, ≈ 1150 containment tests per query;
// median of three runs each): G = 16 gave 8489 queries/s (p50 117 µs),
// G = 32 10196 (97 µs), G = 64 9948 (100 µs). On ten-vertex stars the grid
// costs 1.6 / 3.0 / 7.8 µs to build and 0.6 / 1.8 / 5.4 KB, leaves 26 / 13 /
// 7 % of its cells on the boundary and answers a test inside the MBR in
// 19 / 14.5 / 12 ns (36 ns on the edge loop): 64 buys 2.5 ns a test for
// three times the build and the cache footprint, and end to end that is a
// tie. It is a constant because the win survives many-vertex regions (at
// 100 vertices 37 % of the cells are boundary and the query is still 27 %
// faster; G = 64 would add 8 % there) — see README "The prepared polygon's
// containment grid".
const gridSize = 32

// gridAfter is N, the number of exact containment tests a prepared polygon
// answers before it builds its grid: build cost ÷ per-test saving, so a
// region that never reaches it (a one-shot small query, a decoded request)
// never pays for a structure it cannot amortize. On ten-vertex stars the
// build takes 3.0 µs (BenchmarkContainGridBuild) and a test inside the MBR
// falls from 36 ns on the edge loop to 14.5 ns (BenchmarkContainsInMBR), so
// the build is repaid after 3000 / 21.5 ≈ 140 tests; inside the engine,
// where the edge loop runs colder, the benchmark's geom.contains_ns falls
// 48 → 24 and the figure is 125. 128 is the power of two between them.
const gridAfter = 128

// gridPadScale × the largest coordinate magnitude is the padding added to
// an edge's interpolated x-extent within a row band. The interpolation
// x(y) = a.X + (y-a.Y)/(b.Y-a.Y)·(b.X-a.X) rounds six times; with every
// |coordinate| ≤ M and u = 2⁻⁵³ its absolute error is below 11·u·M (five
// relative roundings on a product bounded by 2M, one on a sum bounded by
// M), and applying the pad rounds once more (≤ u·M). 2⁻⁴⁸·M = 32·u·M
// dominates the 12·u·M total with room to spare.
const gridPadScale = 0x1p-48

// Cell classes. The zero value is the safe one: a boundary cell decides
// nothing and sends the point to the exact edge loop.
const (
	cellBoundary uint8 = iota // an edge may touch the closed cell
	cellOutside               // no edge touches it, and it lies outside
	cellInside                // no edge touches it, and it lies inside
)

// containGrid classifies the cells of a gridSize × gridSize grid over a
// polygon's MBR as inside, outside or boundary. A cell may be non-boundary
// only if no edge of any ring shares a point with its closed rectangle;
// such a rectangle lies in one face of the edge arrangement, where the
// even-odd rule is constant, so one exact probe classifies all of it (the
// README's "touches no edge ⇒ lies in one face" argument).
type containGrid struct {
	// xs and ys are the cell borders, strictly increasing from the MBR's
	// minimum to its maximum. Classification and lookup compare against
	// these same floats, so a point verified to lie between a cell's
	// borders lies in the rectangle that was classified.
	xs, ys     [gridSize + 1]float64
	invW, invH float64 // gridSize ÷ the MBR's width and height
	class      [gridSize * gridSize]uint8
}

// lookup returns the class of the cell holding p, which must lie in the
// closed MBR. The cell index is an estimate (a multiplication that may
// round across a border), so a non-boundary class counts only after p is
// verified against that cell's stored borders; otherwise the answer is
// cellBoundary and the exact loop decides.
//
//vaq:noalloc
func (g *containGrid) lookup(p Point) uint8 {
	ix := min(uint((p.X-g.xs[0])*g.invW), gridSize-1)
	iy := min(uint((p.Y-g.ys[0])*g.invH), gridSize-1)
	c := g.class[iy*gridSize+ix]
	if c != cellBoundary &&
		!(g.xs[ix] <= p.X && p.X <= g.xs[ix+1] && g.ys[iy] <= p.Y && p.Y <= g.ys[iy+1]) {
		return cellBoundary
	}
	return c
}

// span returns the first and last cell, between the strictly increasing
// borders b, whose closed interval meets [lo, hi] — exactly: the index
// estimate is corrected against the borders in both directions. ok is
// false when [lo, hi] misses the grid.
func span(b *[gridSize + 1]float64, inv, lo, hi float64) (i, j int, ok bool) {
	if lo > b[gridSize] || hi < b[0] {
		return 0, 0, false
	}
	i = min(int((max(lo, b[0])-b[0])*inv), gridSize-1)
	for i > 0 && b[i] >= lo {
		i--
	}
	for i < gridSize-1 && b[i+1] < lo {
		i++
	}
	j = min(int((min(hi, b[gridSize])-b[0])*inv), gridSize-1)
	for j < gridSize-1 && b[j+1] <= hi {
		j++
	}
	for j > 0 && b[j] > hi {
		j--
	}
	return i, j, true
}

// testHookGridBuild, when a test sets it, is called at every grid build.
var testHookGridBuild func()

// newContainGrid builds pp's grid, or returns nil when a grid cannot be
// both exact and useful: a non-finite, enormous or vanishing coordinate
// (the padding bound assumes no overflow or underflow), an MBR without
// width or height, borders that do not come out strictly increasing, or
// cells not comfortably wider than the padding (every edge would smear
// over the whole row). A nil grid leaves the exact loop in charge forever.
//
// Edges are marked conservatively, never by an exact segment-rectangle
// test per cell: each edge is walked through the row bands it spans, its
// x-extent within a band is interpolated at the band's borders, padded by
// more than the interpolation can be wrong, and that column range is
// marked. Row and column ranges come from span, which compares the very
// border floats lookup verifies against.
func newContainGrid(pp *PreparedPolygon) *containGrid {
	if testHookGridBuild != nil {
		testHookGridBuild()
	}
	// Largest coordinate magnitude over every edge; holes are not
	// guaranteed to lie inside the MBR. A NaN coordinate makes it NaN.
	var mag float64
	for i := range pp.edges {
		bb := &pp.edges[i].bb
		mag = max(mag, math.Abs(bb.MinX), math.Abs(bb.MinY), math.Abs(bb.MaxX), math.Abs(bb.MaxY))
	}
	b := pp.bound
	w, h := b.MaxX-b.MinX, b.MaxY-b.MinY
	pad := mag * gridPadScale
	if !(mag >= 0x1p-900 && mag <= 0x1p900) || !(w > 64*gridSize*pad) || !(h > 64*gridSize*pad) {
		return nil
	}
	g := &containGrid{invW: gridSize / w, invH: gridSize / h}
	for i := 0; i < gridSize; i++ {
		f := float64(i) / gridSize
		g.xs[i] = b.MinX + w*f
		g.ys[i] = b.MinY + h*f
	}
	g.xs[gridSize], g.ys[gridSize] = b.MaxX, b.MaxY
	for i := 0; i < gridSize; i++ {
		if !(g.xs[i] < g.xs[i+1] && g.ys[i] < g.ys[i+1]) {
			return nil
		}
	}

	// marked[iy] bit ix: an edge may touch the closed cell (ix, iy). One
	// word per row, so gridSize stays below 64.
	var marked [gridSize]uint64
	mark := func(iy int, lo, hi float64) {
		if i, j, ok := span(&g.xs, g.invW, lo, hi); ok {
			marked[iy] |= 1<<(j+1) - 1<<i
		}
	}
	for i := range pp.edges {
		e := &pp.edges[i]
		lo, hi := e.a, e.b
		if lo.Y > hi.Y {
			lo, hi = hi, lo
		}
		r0, r1, ok := span(&g.ys, g.invH, lo.Y, hi.Y)
		if !ok {
			continue // above or below the grid: a hole astray
		}
		dx, dy := hi.X-lo.X, hi.Y-lo.Y
		if dy == 0 {
			// Horizontal: on a border it touches the rows on both sides,
			// over its whole length.
			for r := r0; r <= r1; r++ {
				mark(r, e.bb.MinX, e.bb.MaxX)
			}
			continue
		}
		// x is where the edge enters row r (its lower endpoint, unless it
		// starts below the grid), xn where it leaves it; in between it is
		// monotone, so [min, max] of the two is its x-extent in the band.
		x := lo.X
		if bottom := g.ys[r0]; bottom > lo.Y {
			x = lo.X + (bottom-lo.Y)/dy*dx
		}
		for r := r0; r <= r1; r++ {
			xn := hi.X
			if top := g.ys[r+1]; top < hi.Y {
				xn = lo.X + (top-lo.Y)/dy*dx
			}
			mark(r, min(x, xn)-pad, max(x, xn)+pad)
			x = xn
		}
	}

	// Classify the unmarked cells a run at a time: adjacent ones share a
	// side no edge touches, hence a face, so a run takes the class of any
	// unmarked cell below it and is probed exactly (one corner of the
	// closed cell through the edge loop) only when there is none.
	for iy := 0; iy < gridSize; iy++ {
		row := g.class[iy*gridSize : (iy+1)*gridSize]
		below := uint64(0) // unmarked cells of the row beneath
		if iy > 0 {
			below = ^marked[iy-1]
		}
		for free := ^marked[iy] & (1<<gridSize - 1); free != 0; {
			s := bits.TrailingZeros64(free)
			e := s + bits.TrailingZeros64(^(free >> s))
			run := uint64(1)<<e - uint64(1)<<s
			free &^= run
			c := cellOutside
			if shared := run & below; shared != 0 {
				c = g.class[(iy-1)*gridSize+bits.TrailingZeros64(shared)]
			} else if pp.containsExact(Pt(g.xs[s], g.ys[iy])) {
				c = cellInside
			}
			for ix := s; ix < e; ix++ {
				row[ix] = c
			}
		}
	}
	return g
}
