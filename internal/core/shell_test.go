package core

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"slices"
	"testing"

	"repro/internal/geom"
)

// traceShellOf is the unexported hook onto the trace: the set B traceShell
// stamps for pg on d, sorted, with its counts.
func traceShellOf(t testing.TB, d *MemoryData, pg geom.Polygon) ([]int32, shellCounts) {
	t.Helper()
	s := new(queryScratch)
	s.ensureCapacity(len(d.pts))
	s.nextGen()
	counts, err := d.traceShell(context.Background(), pg, insideLeft(pg) != 0, s, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := slices.Clone(s.queue)
	slices.Sort(b)
	if len(slices.Compact(slices.Clone(b))) != len(b) {
		t.Fatalf("the trace listed a cell twice: %v", b)
	}
	return b, counts
}

// shellSide is one classification of stage 2: the pass through a cell of
// B puts nb, a neighbour outside B, inside or outside the polygon.
type shellSide struct {
	cell, nb int32
	inside   bool
}

// shellCross is a cell of B whose pass classifies: the walk crossed it once,
// from neighbour in to neighbour out.
type shellCross struct{ cell, in, out int32 }

// shellSidesOf is the unexported hook onto stage 2's classification: it
// traces pg on d and reads each pass as floodShell does, returning the cells
// crossed once and, for each, every neighbour outside B with the side its
// pass puts it on — also those floodShell reaches first from another cell.
func shellSidesOf(t testing.TB, d *MemoryData, pg geom.Polygon) (crossed []shellCross, sides []shellSide) {
	t.Helper()
	s := new(queryScratch)
	s.ensureCapacity(len(d.pts))
	s.nextGen()
	left := insideLeft(pg)
	if _, err := d.traceShell(context.Background(), pg, left != 0, s, false, nil); err != nil {
		t.Fatal(err)
	}
	if left == 0 {
		return nil, nil
	}
	if len(s.passes) != len(s.queue) {
		t.Fatalf("%d passes for a shell of %d", len(s.passes), len(s.queue))
	}
	for i, p := range s.queue {
		nbs := ring(d, int(p))
		from, span := s.passes[i].arc(len(nbs))
		if span == 0 {
			continue
		}
		crossed = append(crossed, shellCross{p, nbs[(from+span)%len(nbs)], nbs[from]})
		for j, nb := range nbs {
			if !s.seen(nb) {
				sides = append(sides, shellSide{p, nb, insideOfPass(j, from, span, len(nbs), left)})
			}
		}
	}
	return crossed, sides
}

// cellShell is the brute-force B: every user site whose closed clipped
// cell, cells[id] (scanCells), shares a point with an edge of some ring of
// pg.
func cellShell(d *MemoryData, cells []geom.Ring, pg geom.Polygon) []int32 {
	var b []int32
	for i := d.first; i < d.last; i++ {
		if cellMeetsBoundary(cells[i], pg) {
			b = append(b, int32(i))
		}
	}
	return b
}

func cellMeetsBoundary(cell geom.Ring, pg geom.Polygon) bool {
	for _, r := range append([]geom.Ring{pg.Outer}, pg.Holes...) {
		for i := range r {
			e := geom.Seg(r[i], r[(i+1)%len(r)])
			if (geom.Polygon{Outer: cell}).ContainsPoint(e.A) {
				return true
			}
			for j, k := len(cell)-1, 0; k < len(cell); j, k = k, k+1 {
				if e.Intersects(geom.Seg(cell[j], cell[k])) {
					return true
				}
			}
		}
	}
	return false
}

// checkShell fails t unless the trace of pg on d stamps exactly the cells
// that meet ∂pg by the reference cells of d, scanCells(d). Their vertices
// are bisector crossings rounded to the last place, so on sites off the
// dyadic lattice (1/12, 1/10, 1/41 steps) they cannot tell a cell that
// touches ∂pg from one a rounding error away. A cell the two disagree on
// must be such a one — its clipped ring within cellTieTol of ∂pg — and is
// then settled by the definition, exactly: some point of ∂pg no other site
// is strictly nearer to.
func checkShell(t *testing.T, name string, d *MemoryData, cells []geom.Ring, pg geom.Polygon) {
	t.Helper()
	got, _ := traceShellOf(t, d, pg)
	want := cellShell(d, cells, pg)
	for _, id := range symmetricDifference(got, want) {
		traced := slices.Contains(got, id)
		if dist := ringBoundaryDist(cells[id], pg); dist > cellTieTol {
			t.Errorf("%s: cell %d is %v by the trace, %v by its reference cell, whose ring is %g from the boundary",
				name, id, traced, !traced, dist)
			continue
		}
		if exact := exactCellMeetsBoundary(d.pts, int(id), pg); exact != traced {
			t.Errorf("%s: cell %d is %v by the trace, %v by the exact definition", name, id, traced, exact)
		}
	}
}

// cellTieTol bounds how far a clipped ring lies from its exact cell on the
// unit square: a few ulps of a bisector crossing.
const cellTieTol = 1e-12

func symmetricDifference(a, b []int32) []int32 {
	var out []int32
	for _, id := range a {
		if !slices.Contains(b, id) {
			out = append(out, id)
		}
	}
	for _, id := range b {
		if !slices.Contains(a, id) {
			out = append(out, id)
		}
	}
	return out
}

// ringBoundaryDist is the distance between the ring's edges and ∂pg: zero
// when they cross.
func ringBoundaryDist(cell geom.Ring, pg geom.Polygon) float64 {
	best := math.Inf(1)
	for _, r := range append([]geom.Ring{pg.Outer}, pg.Holes...) {
		for i := range r {
			e := geom.Seg(r[i], r[(i+1)%len(r)])
			for j, k := len(cell)-1, 0; k < len(cell); j, k = k, k+1 {
				f := geom.Seg(cell[j], cell[k])
				if e.Intersects(f) {
					return 0
				}
				best = min(best, e.Dist2Point(f.A), e.Dist2Point(f.B), f.Dist2Point(e.A), f.Dist2Point(e.B))
			}
		}
	}
	return math.Sqrt(best)
}

// exactCellMeetsBoundary decides, in big.Rat, whether some point of an edge
// a→b of pg is as near to site c as to every other site: along the edge,
// |x(t)−n|² − |x(t)−c|² = N − tE (robust.Crossing), so c is a nearest site
// on the t of [0, 1] with tE ≤ N for every n.
func exactCellMeetsBoundary(pts []geom.Point, c int, pg geom.Polygon) bool {
	return exactNearestOnBoundary(pts, c, -1, nil, pg)
}

// exactNearestOnBoundary is exactCellMeetsBoundary against the sites
// rivals lists (every site when nil), restricted, when n ≥ 0, to the points
// as near to site n as to c. With c's Delaunay neighbours as rivals it
// decides whether ∂pg meets the closed Voronoi edge of c and n: a cell is
// the intersection of the half-planes its neighbours' bisectors bound.
func exactNearestOnBoundary(pts []geom.Point, c, n int, rivals []int32, pg geom.Polygon) bool {
	if rivals == nil {
		for m := range pts {
			rivals = append(rivals, int32(m))
		}
	}
	r := func(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }
	dot := func(ux, uy, vx, vy *big.Rat) *big.Rat {
		return new(big.Rat).Add(new(big.Rat).Mul(ux, vx), new(big.Rat).Mul(uy, vy))
	}
	for _, ring := range append([]geom.Ring{pg.Outer}, pg.Holes...) {
		for i := range ring {
			a, b := ring[i], ring[(i+1)%len(ring)]
			lo, hi := big.NewRat(0, 1), big.NewRat(1, 1)
			var at *big.Rat // the t at which n is as near, when only one is
			for _, m := range rivals {
				if int(m) == c {
					continue
				}
				ux := new(big.Rat).Sub(r(pts[m].X), r(pts[c].X))
				uy := new(big.Rat).Sub(r(pts[m].Y), r(pts[c].Y))
				vx := new(big.Rat).Sub(new(big.Rat).Add(r(pts[m].X), r(pts[c].X)), r(2*a.X))
				vy := new(big.Rat).Sub(new(big.Rat).Add(r(pts[m].Y), r(pts[c].Y)), r(2*a.Y))
				nn := dot(ux, uy, vx, vy)
				e := dot(ux, uy, new(big.Rat).Sub(r(b.X), r(a.X)), new(big.Rat).Sub(r(b.Y), r(a.Y)))
				e.Add(e, e)
				if int(m) == n {
					switch {
					case e.Sign() != 0:
						at = new(big.Rat).Quo(nn, e)
					case nn.Sign() != 0:
						hi = big.NewRat(-1, 1) // the edge runs parallel to their bisector, off it
					}
				}
				switch e.Sign() {
				case 0:
					if nn.Sign() < 0 {
						hi = big.NewRat(-1, 1) // m is nearer along the whole edge
					}
				case 1:
					if t := new(big.Rat).Quo(nn, e); t.Cmp(hi) < 0 {
						hi = t
					}
				default:
					if t := new(big.Rat).Quo(nn, e); t.Cmp(lo) > 0 {
						lo = t
					}
				}
				if lo.Cmp(hi) > 0 {
					break
				}
			}
			if at != nil && at.Cmp(lo) >= 0 && at.Cmp(hi) <= 0 || at == nil && lo.Cmp(hi) <= 0 {
				return true
			}
		}
	}
	return false
}

// shellPolygons are the polygons TestShellIsTheBoundaryCells traces on the
// degenerate site sets: the pinned polygons, lattice-aligned ones whose
// edges run along bisectors and through Voronoi vertices of the cocircular
// grid, and one with a hole.
func shellPolygons() []geom.Polygon {
	_, regions := pinnedRegions()
	var pgs []geom.Polygon
	for _, r := range regions {
		if pp, ok := r.(*geom.PreparedPolygon); ok {
			pgs = append(pgs, pp.Polygon())
		}
	}
	rect := func(x0, y0, x1, y1 float64) []geom.Point {
		return []geom.Point{geom.Pt(x0, y0), geom.Pt(x1, y0), geom.Pt(x1, y1), geom.Pt(x0, y1)}
	}
	holed := geom.MustPolygon(rect(0.125, 0.125, 0.875, 0.875))
	if err := holed.AddHole(rect(0.375, 0.375, 0.625, 0.625)); err != nil {
		panic(err)
	}
	return append(pgs,
		geom.MustPolygon(rect(0.25, 0.25, 0.75, 0.75)),
		geom.MustPolygon(rect(1.0/12, 1.0/12, 7.0/12, 5.0/12)),
		geom.MustPolygon([]geom.Point{geom.Pt(0.5, 0.1), geom.Pt(0.9, 0.5), geom.Pt(0.5, 0.9), geom.Pt(0.1, 0.5)}),
		geom.MustPolygon([]geom.Point{geom.Pt(0, 0.5), geom.Pt(1, 0.5), geom.Pt(0.5, 0.75)}),
		holed,
	)
}

// TestShellIsTheBoundaryCells holds the trace to its definition: B is every
// cell whose closed cell meets ∂R, and nothing else, on the pinned sites and
// on the degenerate site sets (lattice, collinear, boundary), with the
// brute-force answer read off the reference cells (settled exactly where
// their rounding cannot tell; see checkShell).
func TestShellIsTheBoundaryCells(t *testing.T) {
	pinned, _ := pinnedRegions()
	fixtures := siteFixtures()
	fixtures["pinned"] = pinned
	for name, pts := range fixtures {
		d, err := NewMemoryData(pts, unitBounds())
		if err != nil {
			t.Fatal(err)
		}
		cells := scanCells(d)
		for i, pg := range shellPolygons() {
			checkShell(t, fmt.Sprintf("%s, polygon %d", name, i), d, cells, pg)
		}
	}
}

// ratContains decides in big.Rat whether p lies in the closed polygon pg:
// on an edge of a ring, or inside an odd number of rings.
func ratContains(pg geom.Polygon, p geom.Point) bool {
	r := func(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }
	odd := false
	for _, ring := range append([]geom.Ring{pg.Outer}, pg.Holes...) {
		for i := range ring {
			a, b := ring[i], ring[(i+1)%len(ring)]
			if p.Y < min(a.Y, b.Y) || p.Y > max(a.Y, b.Y) {
				continue // p is neither on the edge nor level with it
			}
			lhs := new(big.Rat).Mul(new(big.Rat).Sub(r(b.X), r(a.X)), new(big.Rat).Sub(r(p.Y), r(a.Y)))
			rhs := new(big.Rat).Mul(new(big.Rat).Sub(r(b.Y), r(a.Y)), new(big.Rat).Sub(r(p.X), r(a.X)))
			side := lhs.Cmp(rhs) // > 0: p left of a→b
			if side == 0 && min(a.X, b.X) <= p.X && p.X <= max(a.X, b.X) && min(a.Y, b.Y) <= p.Y && p.Y <= max(a.Y, b.Y) {
				return true
			}
			// The edge crosses the rightward ray from p.
			if (a.Y > p.Y) != (b.Y > p.Y) && (side > 0) == (b.Y > a.Y) {
				odd = !odd
			}
		}
	}
	return odd
}

// checkSides fails t unless every side the passes of pg's trace on d put a
// neighbour on is its site's, by ratContains, and no polygon with holes is
// classified. On a small site set it also settles, exactly, that a cell
// crossed once meets ∂pg on no edge but the two it was crossed through: a
// cell met at a tie — a Voronoi vertex on ∂pg, an edge along a bisector, a
// ring vertex on a cell's edge — falls back. It returns the sides checked.
func checkSides(t *testing.T, name string, d *MemoryData, pg geom.Polygon) int {
	t.Helper()
	crossed, sides := shellSidesOf(t, d, pg)
	if len(pg.Holes) > 0 && len(crossed) > 0 {
		t.Errorf("%s: a polygon with holes classified %d cells", name, len(crossed))
	}
	for _, sd := range sides {
		if want := ratContains(pg, d.pts[sd.nb]); sd.inside != want {
			t.Errorf("%s: the pass through %d puts %d at %v inside=%v, exactly %v",
				name, sd.cell, sd.nb, d.pts[sd.nb], sd.inside, want)
		}
	}
	if len(d.pts) > 200 {
		return len(sides)
	}
	for _, x := range crossed {
		for _, nb := range ring(d, int(x.cell)) {
			crossedHere := nb == x.in || nb == x.out
			if meets := exactNearestOnBoundary(d.pts, int(x.cell), int(nb), ring(d, int(x.cell)), pg); meets != crossedHere {
				t.Errorf("%s: cell %d, crossed once from %d to %d: ∂pg meets its edge with %d: %v",
					name, x.cell, x.in, x.out, nb, meets)
			}
		}
	}
	return len(sides)
}

// reversed is pg with its outer ring walked the other way round.
func reversed(pg geom.Polygon) geom.Polygon {
	out := pg.Clone()
	slices.Reverse(out.Outer)
	return out
}

// TestShellClassificationIsExact holds stage 2's classification to its
// definition: on the pinned sites and the degenerate sets, under every
// polygon of shellPolygons walked both ways round, each neighbour a pass
// classifies lies on the side it says, exactly (checkSides), and on the
// small sets no cell met at a tie classifies. A square along the bisectors
// of a grid with exact coordinates meets every cell at a tie, so none
// classifies there.
func TestShellClassificationIsExact(t *testing.T) {
	pinned, _ := pinnedRegions()
	fixtures := siteFixtures()
	fixtures["pinned"] = pinned
	var pgs []geom.Polygon
	for _, pg := range shellPolygons() {
		pgs = append(pgs, pg, reversed(pg))
	}
	classified := 0
	for name, pts := range fixtures {
		d, err := NewMemoryData(pts, unitBounds())
		if err != nil {
			t.Fatal(err)
		}
		for i, pg := range pgs {
			classified += checkSides(t, fmt.Sprintf("%s, polygon %d", name, i), d, pg)
		}
	}
	if classified == 0 {
		t.Fatal("no pass classified a neighbour")
	}
	// On a grid whose coordinates are exact, a square along its bisectors
	// meets every cell it touches at a tie: no pass classifies.
	var grid []geom.Point
	for i := range 16 {
		for j := range 16 {
			grid = append(grid, geom.Pt(float64(2*i+1)/32, float64(2*j+1)/32))
		}
	}
	d, err := NewMemoryData(grid, unitBounds())
	if err != nil {
		t.Fatal(err)
	}
	square := geom.MustPolygon([]geom.Point{geom.Pt(0.25, 0.25), geom.Pt(0.75, 0.25), geom.Pt(0.75, 0.75), geom.Pt(0.25, 0.75)})
	for _, pg := range []geom.Polygon{square, reversed(square)} {
		if crossed, _ := shellSidesOf(t, d, pg); len(crossed) != 0 {
			t.Errorf("a square along an exact grid's bisectors classified %d cells, all met at ties", len(crossed))
		}
		checkSides(t, "exact grid", d, pg)
	}
}
