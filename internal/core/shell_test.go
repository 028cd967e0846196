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
	counts, err := d.traceShell(context.Background(), pg, s, false, nil)
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

// arenaShell is the brute-force B: every site whose closed clipped cell, as
// the arena packs it, shares a point with an edge of some ring of pg.
func arenaShell(d *MemoryData, pg geom.Polygon) []int32 {
	arena := d.CellArena()
	var b []int32
	for i := d.first; i < arena.NumCells(); i++ {
		if cellMeetsBoundary(arena.Ring(i), pg) {
			b = append(b, int32(i))
		}
	}
	return b
}

func cellMeetsBoundary(v geom.RingView, pg geom.Polygon) bool {
	for _, r := range append([]geom.Ring{pg.Outer}, pg.Holes...) {
		for i := range r {
			e := geom.Seg(r[i], r[(i+1)%len(r)])
			if v.ContainsPoint(e.A) {
				return true
			}
			for j, k := v.Len()-1, 0; k < v.Len(); j, k = k, k+1 {
				if e.Intersects(geom.Seg(v.At(j), v.At(k))) {
					return true
				}
			}
		}
	}
	return false
}

// checkShell fails t unless the trace of pg on d stamps exactly the cells
// the arena says meet ∂pg. The arena's vertices are bisector crossings
// rounded to the last place, so on sites off the dyadic lattice (1/12, 1/10,
// 1/41 steps) it cannot tell a cell that touches ∂pg from one a rounding
// error away. A cell the two disagree on must be such a one — its packed
// ring within arenaTieTol of ∂pg — and is then settled by the definition,
// exactly: some point of ∂pg no other site is strictly nearer to.
func checkShell(t *testing.T, name string, d *MemoryData, pg geom.Polygon) {
	t.Helper()
	got, _ := traceShellOf(t, d, pg)
	want := arenaShell(d, pg)
	arena := d.CellArena()
	for _, id := range symmetricDifference(got, want) {
		traced := slices.Contains(got, id)
		if dist := ringBoundaryDist(arena.Ring(int(id)), pg); dist > arenaTieTol {
			t.Errorf("%s: cell %d is %v by the trace, %v by the arena, whose ring is %g from the boundary",
				name, id, traced, !traced, dist)
			continue
		}
		if exact := exactCellMeetsBoundary(d.pts, int(id), pg); exact != traced {
			t.Errorf("%s: cell %d is %v by the trace, %v by the exact definition", name, id, traced, exact)
		}
	}
}

// arenaTieTol bounds how far a packed ring lies from its exact cell on the
// unit square: a few ulps of a bisector crossing.
const arenaTieTol = 1e-12

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
func ringBoundaryDist(v geom.RingView, pg geom.Polygon) float64 {
	best := math.Inf(1)
	for _, r := range append([]geom.Ring{pg.Outer}, pg.Holes...) {
		for i := range r {
			e := geom.Seg(r[i], r[(i+1)%len(r)])
			for j, k := v.Len()-1, 0; k < v.Len(); j, k = k, k+1 {
				f := geom.Seg(v.At(j), v.At(k))
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
	r := func(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }
	dot := func(ux, uy, vx, vy *big.Rat) *big.Rat {
		return new(big.Rat).Add(new(big.Rat).Mul(ux, vx), new(big.Rat).Mul(uy, vy))
	}
	for _, ring := range append([]geom.Ring{pg.Outer}, pg.Holes...) {
		for i := range ring {
			a, b := ring[i], ring[(i+1)%len(ring)]
			lo, hi := big.NewRat(0, 1), big.NewRat(1, 1)
			for n := range pts {
				if n == c {
					continue
				}
				ux := new(big.Rat).Sub(r(pts[n].X), r(pts[c].X))
				uy := new(big.Rat).Sub(r(pts[n].Y), r(pts[c].Y))
				vx := new(big.Rat).Sub(new(big.Rat).Add(r(pts[n].X), r(pts[c].X)), r(2*a.X))
				vy := new(big.Rat).Sub(new(big.Rat).Add(r(pts[n].Y), r(pts[c].Y)), r(2*a.Y))
				nn := dot(ux, uy, vx, vy)
				e := dot(ux, uy, new(big.Rat).Sub(r(b.X), r(a.X)), new(big.Rat).Sub(r(b.Y), r(a.Y)))
				e.Add(e, e)
				switch e.Sign() {
				case 0:
					if nn.Sign() < 0 {
						hi = big.NewRat(-1, 1) // n is nearer along the whole edge
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
			if lo.Cmp(hi) <= 0 {
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
// on the arena's degenerate site sets (lattice, collinear, boundary), with
// the brute-force answer read off the clipped cell arena (settled exactly
// where the arena's rounding cannot tell; see checkShell).
func TestShellIsTheBoundaryCells(t *testing.T) {
	pinned, _ := pinnedRegions()
	fixtures := arenaFixtures()
	fixtures["pinned"] = pinned
	for name, pts := range fixtures {
		d, err := NewMemoryData(pts, unitBounds())
		if err != nil {
			t.Fatal(err)
		}
		for i, pg := range shellPolygons() {
			checkShell(t, fmt.Sprintf("%s, polygon %d", name, i), d, pg)
		}
	}
}

// TestDynamicStrictPolygonBuildsNoArena: an epoch that answers only strict
// polygon queries never packs its cells.
func TestDynamicStrictPolygonBuildsNoArena(t *testing.T) {
	pts, regions := pinnedRegions()
	de := NewDynamicEngine(unitBounds())
	for _, p := range pts[:500] {
		if _, _, err := de.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	snap := de.Snapshot()
	for _, r := range regions[:15] {
		if _, _, err := snap.Engine().QueryRegionSpec(context.Background(), r, QuerySpec{Method: VoronoiBFSStrict}); err != nil {
			t.Fatal(err)
		}
	}
	if snap.Engine().data.arena.cells != nil {
		t.Error("strict polygon queries built the epoch's cell arena")
	}
}
