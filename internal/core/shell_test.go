package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"testing"

	"repro/internal/geom"
)

// shellSidesOf is the unexported hook onto the walk: the set B walkShell
// stamps for pg on d, in stamping order, with each site's side records and
// the walk's counts.
func shellSidesOf(t testing.TB, d *MemoryData, pg geom.Polygon) ([]int32, []uint8, walkCounts) {
	t.Helper()
	s := new(queryScratch)
	s.ensureCapacity(len(d.pts))
	s.nextGen()
	counts, err := d.walkShell(context.Background(), pg, s, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.sides) != len(s.queue) {
		t.Fatalf("%d side records for a shell of %d", len(s.sides), len(s.queue))
	}
	return s.queue, s.sides, counts
}

// walkShellOf is B sorted, checked to hold no site twice.
func walkShellOf(t testing.TB, d *MemoryData, pg geom.Polygon) []int32 {
	t.Helper()
	b, _, _ := shellSidesOf(t, d, pg)
	b = slices.Clone(b)
	slices.Sort(b)
	if len(slices.Compact(slices.Clone(b))) != len(b) {
		t.Fatalf("the walk stamped a site twice: %v", b)
	}
	return b
}

// edgeShell is the brute-force B: both ends of every Delaunay edge of d,
// fence sites' included, whose closed segment meets a ring of pg, by the
// exact segment test over the CSR rings.
func edgeShell(d *MemoryData, pg geom.Polygon) []int32 {
	var b []int32
	for p := range d.pts {
		for _, n := range ring(d, p) {
			if edgeMeetsBoundary(geom.Seg(d.pts[p], d.pts[n]), pg) {
				b = append(b, int32(p))
				break
			}
		}
	}
	return b
}

func edgeMeetsBoundary(e geom.Segment, pg geom.Polygon) bool {
	for _, r := range append([]geom.Ring{pg.Outer}, pg.Holes...) {
		for i := range r {
			if e.Intersects(geom.Seg(r[i], r[(i+1)%len(r)])) {
				return true
			}
		}
	}
	return false
}

// checkShell fails t unless the walk of pg on d stamps exactly the ends of
// the Delaunay edges that meet ∂pg.
func checkShell(t *testing.T, name string, d *MemoryData, pg geom.Polygon) {
	t.Helper()
	if got, want := walkShellOf(t, d, pg), edgeShell(d, pg); !slices.Equal(got, want) {
		t.Errorf("%s: the walk stamps %v, the edges meeting ∂pg end at %v", name, got, want)
	}
}

// shellPolygons are the polygons the shell tests walk on the degenerate site
// sets: the pinned polygons, lattice-aligned ones whose edges run along
// bisectors, through sites and through Voronoi vertices of the cocircular
// grid, a spike through the grid's Delaunay edges, and two with holes.
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
	// Its outer ring runs clockwise, and its holes one each way.
	twoHoles := geom.MustPolygon([]geom.Point{geom.Pt(0.05, 0.95), geom.Pt(0.95, 0.95), geom.Pt(0.95, 0.05), geom.Pt(0.05, 0.05)})
	for _, h := range [][]geom.Point{rect(0.1, 0.1, 0.45, 0.9), {geom.Pt(0.5, 0.2), geom.Pt(0.5, 0.8), geom.Pt(0.9, 0.5)}} {
		if err := twoHoles.AddHole(h); err != nil {
			panic(err)
		}
	}
	return append(pgs,
		geom.MustPolygon(rect(0.25, 0.25, 0.75, 0.75)),
		geom.MustPolygon(rect(1.0/12, 1.0/12, 7.0/12, 5.0/12)),
		geom.MustPolygon(rect(1.0/24, 1.0/24, 13.0/24, 11.0/24)),
		geom.MustPolygon([]geom.Point{geom.Pt(0.5, 0.1), geom.Pt(0.9, 0.5), geom.Pt(0.5, 0.9), geom.Pt(0.1, 0.5)}),
		geom.MustPolygon([]geom.Point{geom.Pt(0, 0.5), geom.Pt(1, 0.5), geom.Pt(0.5, 0.75)}),
		geom.MustPolygon([]geom.Point{geom.Pt(0.1, 0.3), geom.Pt(0.8, 0.52), geom.Pt(0.1, 0.31)}),
		// A vertex inside a grid edge, met crossing a triangle, then along
		// the edge.
		geom.MustPolygon([]geom.Point{geom.Pt(2.0/24, 5.0/24), geom.Pt(9.0/24, 5.0/24), geom.Pt(9.0/24, 0.5), geom.Pt(0.05, 0.4)}),
		holed,
		twoHoles,
	)
}

// TestShellIsTheBoundaryCells holds the walk to its definition: B is both
// ends of every Delaunay edge that meets ∂R, and nothing else, on the pinned
// sites and on the degenerate site sets (lattice, collinear, boundary),
// under every polygon of shellPolygons walked both ways round.
func TestShellIsTheBoundaryCells(t *testing.T) {
	pinned, _ := pinnedRegions()
	fixtures := siteFixtures()
	fixtures["pinned"] = pinned
	for name, pts := range fixtures {
		d, err := NewMemoryData(pts, unitBounds())
		if err != nil {
			t.Fatal(err)
		}
		for i, pg := range shellPolygons() {
			checkShell(t, fmt.Sprintf("%s, polygon %d", name, i), d, pg)
			checkShell(t, fmt.Sprintf("%s, polygon %d reversed", name, i), d, reversed(pg))
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

// checkSides fails t unless every site the strict query on pg places
// without a test lies on the side ratContains says: the sites of B its
// records classify (fence sites dropped as outside), and every site the
// flood emits, so that the answer is exactly ratContains' and the query
// validates exactly the sites the records leave undecided. It returns how
// many sites of B were classified, and how many had disagreeing records.
func checkSides(t *testing.T, name string, d *MemoryData, pg geom.Polygon) (classified, disagreed int) {
	t.Helper()
	b, sides, _ := shellSidesOf(t, d, pg)
	validated := 0
	for i, p := range b {
		inside := sides[i] == sideIn
		switch {
		case int(p) < d.first || int(p) >= d.last:
			inside = false
		case sides[i] == sideIn || sides[i] == sideOut:
		default:
			validated++
			if sides[i] == sideIn|sideOut {
				disagreed++
			}
			continue
		}
		classified++
		if want := ratContains(pg, d.pts[p]); inside != want {
			t.Errorf("%s: site %d at %v with records %03b placed inside=%v, exactly %v", name, p, d.pts[p], sides[i], inside, want)
		}
	}
	var want []int64
	for p := d.first; p < d.last; p++ {
		if ratContains(pg, d.pts[p]) {
			want = append(want, int64(p))
		}
	}
	ids, st, err := query(NewEngine(nil, d), VoronoiBFSStrict, pg)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(ids)
	if !slices.Equal(ids, want) {
		t.Errorf("%s: the strict query returns %d sites, %d lie inside: %v against %v", name, len(ids), len(want), ids, want)
	}
	if st.Candidates != validated {
		t.Errorf("%s: the strict query validated %d sites, the records leave %d undecided", name, st.Candidates, validated)
	}
	return classified, disagreed
}

// reversed is pg with every ring walked the other way round.
func reversed(pg geom.Polygon) geom.Polygon {
	out := pg.Clone()
	slices.Reverse(out.Outer)
	for _, h := range out.Holes {
		slices.Reverse(h)
	}
	return out
}

// TestShellClassificationIsExact holds the classification to its
// definition: on the pinned sites and the degenerate sets, under every
// polygon of shellPolygons walked both ways round, with holes and without,
// each site the query places without a test lies on the side it says,
// exactly (checkSides). Some sites are classified, and some are validated
// for records that disagree.
func TestShellClassificationIsExact(t *testing.T) {
	pinned, _ := pinnedRegions()
	fixtures := siteFixtures()
	fixtures["pinned"] = pinned
	var pgs []geom.Polygon
	for _, pg := range shellPolygons() {
		pgs = append(pgs, pg, reversed(pg))
		if len(pg.Holes) > 0 {
			outer := geom.Polygon{Outer: pg.Outer}
			pgs = append(pgs, outer, reversed(outer))
		}
	}
	classified, disagreed := 0, 0
	for name, pts := range fixtures {
		d, err := NewMemoryData(pts, unitBounds())
		if err != nil {
			t.Fatal(err)
		}
		for i, pg := range pgs {
			c, dis := checkSides(t, fmt.Sprintf("%s, polygon %d", name, i), d, pg)
			classified += c
			disagreed += dis
		}
	}
	if classified == 0 || disagreed == 0 {
		t.Fatalf("%d sites classified, %d with disagreeing records: the fixtures exercise neither", classified, disagreed)
	}
}

// TestWalkOutsideTheUniverseFails: a ring that leaves the fence triangle
// crosses an edge of two fence sites, and the strict query fails there
// rather than walking a ring of a fence site's that has no triangle. Every
// flavor refuses such a region before it queries.
func TestWalkOutsideTheUniverseFails(t *testing.T) {
	pts, _ := pinnedRegions()
	d, err := NewMemoryData(pts, unitBounds())
	if err != nil {
		t.Fatal(err)
	}
	far := geom.MustPolygon([]geom.Point{geom.Pt(0.5, 0.5), geom.Pt(100, 0.5), geom.Pt(100, 0.6)})
	if _, _, err := query(NewEngine(nil, d), VoronoiBFSStrict, far); !errors.Is(err, errWalkEscaped) {
		t.Fatalf("a ring out to x = 100: err %v, want %v", err, errWalkEscaped)
	}
}
