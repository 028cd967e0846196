package voronoi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/delaunay"
	"repro/internal/geom"
)

func uniformPoints(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	return pts
}

func unitBounds() geom.Rect { return geom.NewRect(0, 0, 1, 1) }

// cell returns the Voronoi cell of site i clipped to the diagram bounds, as
// a counterclockwise ring. The cell is computed as the intersection of the
// bounding rectangle with the bisector half-planes toward each Voronoi
// neighbor, which is exact up to floating-point bisector crossings and
// needs no special-casing for unbounded hull cells. It is the reference
// the tests hold CellFromNeighbors and the arena to.
func (d *Diagram) cell(i int) geom.Ring {
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

// newDiagram is the diagram of pts clipped to bounds, over the triangulation
// delaunay.Build makes of them.
func newDiagram(tb testing.TB, pts []geom.Point, bounds geom.Rect) *Diagram {
	tb.Helper()
	tri, err := delaunay.Build(pts)
	if err != nil {
		tb.Fatal(err)
	}
	return FromTriangulation(tri, bounds)
}

func TestTwoSitesCellsSplitBounds(t *testing.T) {
	d := newDiagram(t, []geom.Point{geom.Pt(0.25, 0.5), geom.Pt(0.75, 0.5)}, unitBounds())
	c0, c1 := d.cell(0), d.cell(1)
	if math.Abs(c0.Area()-0.5) > 1e-9 || math.Abs(c1.Area()-0.5) > 1e-9 {
		t.Errorf("cell areas = %v, %v; want 0.5 each", c0.Area(), c1.Area())
	}
	// The bisector x=0.5 bounds both cells.
	for _, p := range c0 {
		if p.X > 0.5+1e-9 {
			t.Errorf("cell 0 vertex %v crosses bisector", p)
		}
	}
	for _, p := range c1 {
		if p.X < 0.5-1e-9 {
			t.Errorf("cell 1 vertex %v crosses bisector", p)
		}
	}
}

func TestCellContainsItsSite(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := uniformPoints(rng, 400)
	d := newDiagram(t, pts, unitBounds())
	for i := range pts {
		cell := d.cell(i)
		if len(cell) < 3 {
			t.Fatalf("site %d: degenerate cell %v", i, cell)
		}
		pg := geom.Polygon{Outer: cell}
		if !pg.ContainsPoint(pts[i]) {
			t.Fatalf("site %d at %v not inside its cell", i, pts[i])
		}
	}
}

func TestCellsPartitionBounds(t *testing.T) {
	// The clipped cells must tile the bounding rectangle: areas sum to the
	// rect area (pairwise overlaps have measure zero).
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 10, 100, 500} {
		pts := uniformPoints(rng, n)
		d := newDiagram(t, pts, unitBounds())
		var sum float64
		for i := 0; i < n; i++ {
			sum += d.cell(i).Area()
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("n=%d: cell areas sum to %v, want 1", n, sum)
		}
	}
}

func TestCellMembershipMatchesNearestSite(t *testing.T) {
	// Property 3: q ∈ V(P, p) ⇔ p is the nearest site to q. Sampled.
	rng := rand.New(rand.NewSource(3))
	pts := uniformPoints(rng, 200)
	d := newDiagram(t, pts, unitBounds())
	cells := make([]geom.Polygon, len(pts))
	for i := range pts {
		cells[i] = geom.Polygon{Outer: d.cell(i)}
	}
	for trial := 0; trial < 3000; trial++ {
		q := geom.Pt(rng.Float64(), rng.Float64())
		// Brute-force nearest site.
		best, bestD := 0, math.Inf(1)
		for i, p := range pts {
			if dd := q.Dist2(p); dd < bestD {
				best, bestD = i, dd
			}
		}
		// Ties make membership ambiguous; skip near-boundary queries.
		secondD := math.Inf(1)
		for i, p := range pts {
			if i != best {
				if dd := q.Dist2(p); dd < secondD {
					secondD = dd
				}
			}
		}
		if secondD-bestD < 1e-9 {
			continue
		}
		if !cells[best].ContainsPoint(q) {
			t.Fatalf("q=%v nearest site %d but outside its cell", q, best)
		}
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := uniformPoints(rng, 500)
	d := newDiagram(t, pts, unitBounds())
	for i := range pts {
		for _, nb := range d.tri.Neighbors(i) {
			found := false
			for _, back := range d.tri.Neighbors(int(nb)) {
				if int(back) == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("neighbor relation not symmetric: %d -> %d", i, nb)
			}
		}
	}
}

func TestAdjacentCellsShareBisectorEdge(t *testing.T) {
	// For Voronoi neighbors p, q the shared cell boundary lies on the
	// perpendicular bisector: sampled cell vertices adjacent to both sites
	// must be equidistant.
	rng := rand.New(rand.NewSource(5))
	pts := uniformPoints(rng, 100)
	d := newDiagram(t, pts, unitBounds())
	for i := 0; i < 20; i++ {
		site := pts[i]
		cell := d.cell(i)
		for _, v := range cell {
			dSite := v.Dist(site)
			// No other site may be strictly closer to the cell vertex.
			for j, p := range pts {
				if j == i {
					continue
				}
				if v.Dist(p) < dSite-1e-6 {
					t.Fatalf("cell vertex %v of site %d closer to site %d", v, i, j)
				}
			}
		}
	}
}

func TestFromTriangulationSharesTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := uniformPoints(rng, 50)
	d1 := newDiagram(t, pts, unitBounds())
	d2 := FromTriangulation(d1.tri, geom.NewRect(-1, -1, 2, 2))
	if d2.NumSites() != d1.NumSites() {
		t.Error("site count changed")
	}
	// The bounds are honored: cell areas sum to the larger rect.
	var sum float64
	for i := 0; i < d2.NumSites(); i++ {
		sum += d2.cell(i).Area()
	}
	if math.Abs(sum-9) > 1e-6 {
		t.Errorf("areas sum to %v, want 9", sum)
	}
}

func TestCollinearSitesCells(t *testing.T) {
	pts := []geom.Point{geom.Pt(0.2, 0.5), geom.Pt(0.5, 0.5), geom.Pt(0.8, 0.5)}
	d := newDiagram(t, pts, unitBounds())
	// Cells are three vertical slabs.
	if math.Abs(d.cell(0).Area()-0.35) > 1e-9 ||
		math.Abs(d.cell(1).Area()-0.30) > 1e-9 ||
		math.Abs(d.cell(2).Area()-0.35) > 1e-9 {
		t.Errorf("slab areas = %v %v %v", d.cell(0).Area(), d.cell(1).Area(), d.cell(2).Area())
	}
}

func TestSiteAccessors(t *testing.T) {
	pts := []geom.Point{geom.Pt(0.1, 0.2), geom.Pt(0.9, 0.8)}
	d := newDiagram(t, pts, unitBounds())
	if tri := d.tri; tri.Point(0) != pts[0] || tri.Point(1) != pts[1] {
		t.Error("site coordinates mismatch")
	}
	if d.NumSites() != 2 {
		t.Error("NumSites mismatch")
	}
}

func BenchmarkCell(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pts := uniformPoints(rng, 10_000)
	d := newDiagram(b, pts, unitBounds())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.cell(i % len(pts))
	}
}
