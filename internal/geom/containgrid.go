package geom

import (
	"math"
	"math/bits"
)

// gridSize is G, the side of the face-classification grid a prepared
// polygon builds over its MBR. Swept on the benchmark's mem-area workload
// (200k sites, 1 % ten-vertex stars, ≈ 1150 containment tests per query;
// median of three runs each, when the grid served containment alone):
// G = 16 gave 8489 queries/s (p50 117 µs), G = 32 10196 (97 µs), G = 64
// 9948 (100 µs). On ten-vertex stars the grid cost 1.6 / 3.0 / 7.8 µs to
// build and 0.6 / 1.8 / 5.4 KB, leaves 26 / 13 / 7 % of its cells on the
// boundary and answered a test inside the MBR in 19 / 14.5 / 12 ns (36 ns on
// the edge loop): 64 buys 2.5 ns a test for three times the build and the
// cache footprint, and end to end that is a tie. It is a constant because
// the win survives many-vertex regions: what grew with the vertex count was
// the edge loop behind the boundary cells (37 % of them at 100 vertices),
// and that loop now runs over a cell's or a row's own few edges — see
// README "The prepared polygon's containment grid".
const gridSize = 32

// gridAfter is N, the number of exact containment tests a prepared polygon
// answers before it builds its grid: build cost ÷ per-test saving, so a
// region that never reaches it (a one-shot small query, a decoded request)
// never pays for a structure it cannot amortize. On ten-vertex stars, on a
// host where the grid without lists took 3.7 µs to build and the parent's
// edge loop 49 ns a test, the build takes 5.9 µs (BenchmarkContainGridBuild)
// and a test inside the MBR falls from 33 ns on the edge loop to 14.5 ns
// (BenchmarkContainsInMBR): repaid after 5900 / 18.5 ≈ 320 containment
// tests standing alone. Inside the engine, where the loops run colder and
// the lists serve the segment tests too, the benchmark's geom.contains_ns
// falls 50 → 25 and geom.segment_ns 106 → 70 with 0.37 segment tests per
// containment test, ≈ 32 ns per containment test and a figure of ≈ 180. 128
// and 256 are each within a factor of two of both, which is all a
// rent-or-buy threshold can use; 128 stays (a 0.01 % region is queried some
// 55 times in a benchmark run, 27 tests a time: at 256 it would run 128
// more of its ≈ 1500 tests on the loop and build the same grid).
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
// polygon's MBR as inside, outside or boundary, and lists the edges of each
// boundary cell and of each row. A cell may be non-boundary only if no edge
// of any ring shares a point with its closed rectangle; such a rectangle
// lies in one face of the edge arrangement, where the even-odd rule is
// constant, so one exact probe classifies all of it (the README's "touches
// no edge ⇒ lies in one face" argument). The same marking says which edges
// a point, a segment or a box can meet: only those listed where it lies.
type containGrid struct {
	// xs and ys are the cell borders, strictly increasing from the MBR's
	// minimum to its maximum. Classification and lookup compare against
	// these same floats, so a point verified to lie between a cell's
	// borders lies in the rectangle that was classified.
	xs, ys     [gridSize + 1]float64
	invW, invH float64 // gridSize ÷ the MBR's width and height
	class      [gridSize * gridSize]uint8

	// The edges the band walk marked, as indices into the prepared edge
	// list. marked[iy] bit ix is set for a boundary cell (one word per row,
	// so gridSize stays below 64) and rank[iy] counts the boundary cells of
	// the rows below iy: cell (ix, iy) is boundary cell number
	// k = rank[iy] + popcount(marked[iy] below bit ix), and the edges that
	// may touch its closed rectangle are lists[lists[k]:lists[k+1]]. The
	// edges whose y-span meets row iy's closed band — a superset of every
	// cell list in the row — are lists[rowStart[iy]:rowStart[iy+1]]. Both
	// kinds are ascending and live in the one allocation; lists is nil when
	// they were refused (see newContainGrid), and then only class is used.
	marked   [gridSize]uint64
	rank     [gridSize]uint16
	rowStart [gridSize + 1]uint16
	lists    []uint16
}

// lookup returns the class of the cell holding p, which must lie in the
// closed MBR, and p's row. The cell index is an estimate (a multiplication
// that may round across a border), so a non-boundary class counts only
// after p is verified against that cell's stored borders; otherwise the
// answer is cellBoundary and an edge loop decides. row is -1 when p.Y is
// not between the estimated row's borders either.
//
//vaq:noalloc
func (g *containGrid) lookup(p Point) (class uint8, row int) {
	ix := min(uint((p.X-g.xs[0])*g.invW), gridSize-1)
	iy := min(uint((p.Y-g.ys[0])*g.invH), gridSize-1)
	if !(g.ys[iy] <= p.Y && p.Y <= g.ys[iy+1]) {
		return cellBoundary, -1
	}
	c := g.class[iy*gridSize+ix]
	if c != cellBoundary && !(g.xs[ix] <= p.X && p.X <= g.xs[ix+1]) {
		return cellBoundary, int(iy)
	}
	return c, int(iy)
}

// rowEdges returns the edges whose y-span meets row's closed band (the
// lists exist only when no edge leaves the MBR, so each of them was walked
// through the row). Every edge that can hold a point of the band or cross
// its rightward ray is among them: either needs the point's y within the
// edge's y-span.
//
//vaq:noalloc
func (g *containGrid) rowEdges(row int) []uint16 {
	return g.lists[g.rowStart[row]:g.rowStart[row+1]]
}

// cell returns the number of the first marked cell of row iy at or right of
// column ix; the marked cells of a row are numbered consecutively.
//
//vaq:noalloc
func (g *containGrid) cell(ix, iy int) int {
	return int(g.rank[iy]) + bits.OnesCount64(g.marked[iy]&(1<<ix-1))
}

// nearMax is the most edges near collects; a box with more around it is
// left to the loop over every edge.
const nearMax = 32

// coverSlack, in cells, is how far near's column and row estimates are
// pushed outwards, so that without a look at the borders they cover every
// cell whose closed rectangle the box meets. An estimate is a difference
// and a product (a few ulps of its own value, at most 32) set against
// borders that are each within 5·2⁻⁵³·M of where the estimate assumes them,
// M the largest coordinate magnitude; a cell is more than 64·2⁻⁴⁸·M wide or
// the grid was refused, so the two disagree by less than 2⁻⁸ of a cell.
const coverSlack = 1.0 / 32

// near collects into buf the edges that can share a point with b, a box
// that meets the MBR, and returns how many: those listed in the cells whose
// closed rectangles b meets, nearly always once each. Every point of the
// MBR lies in a closed cell and a cell lists every edge that touches it,
// and the lists exist only when no edge leaves the MBR. ok is false when
// the caller must loop over every edge instead: there is no grid or it has
// no lists, more than nearMax edges are near, or b covers more cells than
// there are edges — a cell costs the walk about what an edge's bounding-box
// compare costs the loop (on a 0.01 % region a Delaunay edge is 8 cells
// long and its box some 30 cells, against ten edges; on a 1 % region the
// box is 3 cells, and walking them is worth 7.8 % of the benchmark's
// mem-area queries per second, 8 of 8 pairs).
//
//vaq:noalloc
func (pp *PreparedPolygon) near(b Rect, buf *[nearMax]uint16) (n int, ok bool) {
	g := pp.grid.Load()
	if g == nil || g.lists == nil {
		return 0, false
	}
	// b's corners in cells from the grid's minimum corner, slack included.
	x0, x1 := (b.MinX-pp.bound.MinX)*g.invW-coverSlack, (b.MaxX-pp.bound.MinX)*g.invW+coverSlack
	y0, y1 := (b.MinY-pp.bound.MinY)*g.invH-coverSlack, (b.MaxY-pp.bound.MinY)*g.invH+coverSlack
	if !((x1-x0+1)*(y1-y0+1) <= float64(len(pp.edges))) {
		return 0, false // also an infinite b; a NaN never meets the MBR
	}
	// b meets the MBR and is fewer cells wide than a uint16 counts, so the
	// corners convert to int exactly, the low ones below gridSize and the
	// high ones positive.
	i0, i1 := max(int(x0), 0), min(int(x1), gridSize-1)
	j0, j1 := max(int(y0), 0), min(int(y1), gridSize-1)
	cols := uint64(1)<<(i1+1) - uint64(1)<<i0
	var last [8]uint16 // edge + 1, by edge mod 8
	for j := j0; j <= j1; j++ {
		m := g.marked[j] & cols
		if m == 0 {
			continue
		}
		k := g.cell(i0, j)
		for ; m != 0; m &= m - 1 {
			for _, e := range g.lists[g.lists[k]:g.lists[k+1]] {
				// An edge runs through several of the cells; the edges
				// around one place are a run of indices, which land in
				// different slots. A collision lets an edge in twice, and
				// it is tested twice.
				if last[e%8] == e+1 {
					continue
				}
				last[e%8] = e + 1
				if n == nearMax {
					return 0, false
				}
				buf[n] = e
				n++
			}
			k++
		}
	}
	return n, true
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

// bandStep is one step of the band walk: edge may touch the closed cells of
// columns lo..hi in row.
type bandStep struct {
	edge        uint16
	row, lo, hi uint8
}

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
//
// The walk's steps are kept and sorted into the cell and row lists, so a
// build is two allocations: the grid and the lists' backing array. The
// lists are refused, and the grid classifies points only, when an edge
// leaves the MBR (a hole astray: it can meet a segment or a box outside
// every cell) or when the edges or the lists outgrow a uint16.
func newContainGrid(pp *PreparedPolygon) *containGrid {
	if testHookGridBuild != nil {
		testHookGridBuild()
	}
	// Largest coordinate magnitude over every edge; holes are not
	// guaranteed to lie inside the MBR. A NaN coordinate makes it NaN.
	b := pp.bound
	listed := len(pp.edges) <= math.MaxUint16
	var mag float64
	for i := range pp.edges {
		bb := &pp.edges[i].bb
		mag = max(mag, math.Abs(bb.MinX), math.Abs(bb.MinY), math.Abs(bb.MaxX), math.Abs(bb.MaxY))
		listed = listed && b.ContainsRect(*bb)
	}
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

	// A ten-vertex star takes about 150 steps; the buffer moves to the heap
	// only for regions with more.
	var buf [256]bandStep
	steps := buf[:0]
	cells := 0 // entries of all cell lists
	mark := func(edge, iy int, lo, hi float64) {
		if i, j, ok := span(&g.xs, g.invW, lo, hi); ok {
			g.marked[iy] |= 1<<(j+1) - 1<<i
			if listed {
				steps = append(steps, bandStep{uint16(edge), uint8(iy), uint8(i), uint8(j)})
				cells += j - i + 1
			}
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
				mark(i, r, e.bb.MinX, e.bb.MaxX)
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
			mark(i, r, min(x, xn)-pad, max(x, xn)+pad)
			x = xn
		}
	}

	// Classify the unmarked cells a run at a time: adjacent ones share a
	// side no edge touches, hence a face, so a run takes the class of any
	// unmarked cell below it and is probed exactly (one corner of the
	// closed cell through the edge loop) only when there is none.
	boundary := 0 // marked cells
	for iy := 0; iy < gridSize; iy++ {
		g.rank[iy] = uint16(boundary)
		boundary += bits.OnesCount64(g.marked[iy])
		row := g.class[iy*gridSize : (iy+1)*gridSize]
		below := uint64(0) // unmarked cells of the row beneath
		if iy > 0 {
			below = ^g.marked[iy-1]
		}
		for free := ^g.marked[iy] & (1<<gridSize - 1); free != 0; {
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

	// The lists, by counting sort over the steps: one offset per marked
	// cell and one past them, the cell lists, the row lists.
	total := boundary + 1 + cells + len(steps)
	if !listed || total > math.MaxUint16 {
		return g
	}
	lists := make([]uint16, total)
	for _, s := range steps {
		g.rowStart[s.row]++
		k := g.cell(int(s.lo), int(s.row))
		for n := int(s.hi - s.lo); n >= 0; n-- {
			lists[k+n]++
		}
	}
	// Counts become end offsets. Filling backwards from each end then
	// leaves every list ascending and every offset at its list's start,
	// which is the end of the list before it.
	end := uint16(boundary + 1)
	for k := 0; k < boundary; k++ {
		end += lists[k]
		lists[k] = end
	}
	lists[boundary] = end
	for iy := 0; iy < gridSize; iy++ {
		end += g.rowStart[iy]
		g.rowStart[iy] = end
	}
	g.rowStart[gridSize] = end
	for i := len(steps) - 1; i >= 0; i-- {
		s := steps[i]
		g.rowStart[s.row]--
		lists[g.rowStart[s.row]] = s.edge
		k := g.cell(int(s.lo), int(s.row))
		for n := int(s.hi - s.lo); n >= 0; n-- {
			lists[k+n]--
			lists[lists[k+n]] = s.edge
		}
	}
	g.lists = lists
	return g
}
