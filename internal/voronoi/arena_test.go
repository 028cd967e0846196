package voronoi

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// clusteredPoints draws n points around k Gaussian cluster centers,
// clamped into the unit square.
func clusteredPoints(rng *rand.Rand, n, k int, sigma float64) []geom.Point {
	centers := uniformPoints(rng, k)
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[rng.Intn(k)]
		x := c.X + rng.NormFloat64()*sigma
		y := c.Y + rng.NormFloat64()*sigma
		pts[i] = geom.Pt(clamp01(x), clamp01(y))
	}
	return pts
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// checkArenaParity verifies that the packed arena agrees with the per-call
// cell on every site: identical rings (exact float equality — the
// builders share the clipping code path).
func checkArenaParity(t *testing.T, pts []geom.Point, bounds geom.Rect) {
	t.Helper()
	d := newDiagram(t, pts, bounds)
	a := BuildCellArena(d)
	cells := len(a.offs) - 1
	if cells != d.NumSites() {
		t.Fatalf("%d cells packed, want %d", cells, d.NumSites())
	}
	verts := 0
	for i := 0; i < d.NumSites(); i++ {
		cell := d.cell(i)
		view := a.Ring(i)
		if view.Len() != len(cell) {
			t.Fatalf("site %d: arena ring has %d vertices, Cell has %d", i, view.Len(), len(cell))
		}
		for j := range cell {
			if view.At(j) != cell[j] {
				t.Fatalf("site %d vertex %d: arena %v != Cell %v", i, j, view.At(j), cell[j])
			}
		}
		verts += view.Len()
	}
	// Nothing is retained beyond the rings: two float64 per vertex and an
	// int32 offset per cell, one closing offset.
	if got, want := a.Bytes(), 16*verts+4*cells+4; got != want {
		t.Fatalf("Bytes = %d, want %d for %d vertices in %d cells", got, want, verts, cells)
	}
}

func TestCellArenaParityUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	checkArenaParity(t, uniformPoints(rng, 1500), unitBounds())
}

func TestCellArenaParityClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checkArenaParity(t, clusteredPoints(rng, 1500, 8, 0.01), unitBounds())
}

func TestCellArenaParityCollinear(t *testing.T) {
	// All sites on one horizontal line: every Delaunay structure is
	// degenerate, cells are vertical slabs.
	pts := make([]geom.Point, 40)
	for i := range pts {
		pts[i] = geom.Pt(float64(i+1)/41, 0.5)
	}
	checkArenaParity(t, pts, unitBounds())
}

func TestCellArenaParityDuplicateHeavy(t *testing.T) {
	// Heavy coordinate reuse: a coarse grid sampled with replacement, its
	// repeats dropped (a triangulation refuses them), leaves a lattice whose
	// every Delaunay quad is cocircular.
	rng := rand.New(rand.NewSource(99))
	var pts []geom.Point
	for range 600 {
		if p := geom.Pt(float64(rng.Intn(12))/12+1.0/24, float64(rng.Intn(12))/12+1.0/24); !slices.Contains(pts, p) {
			pts = append(pts, p)
		}
	}
	checkArenaParity(t, pts, unitBounds())
}

func TestCellArenaFromSitesMatchesCellFromNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := uniformPoints(rng, 300)
	d := newDiagram(t, pts, unitBounds())
	// Drive the builder from plain coordinates and neighbor lists; rings
	// must match CellFromNeighbors over the same neighbor sequences.
	a := cellArenaFromSites(
		d.NumSites(), unitBounds(),
		func(id int64) geom.Point { return pts[id] },
		func(id int64) []int32 { return d.tri.Neighbors(int(id)) },
	)
	// CellFromNeighbors reuses its two buffers from site to site, as the
	// engines do.
	var want, spare []geom.Point
	for i := 0; i < d.NumSites(); i++ {
		want, spare = CellFromNeighbors(want, spare, pts[i], d.tri.Neighbors(i), pts, unitBounds())
		view := a.Ring(i)
		if view.Len() != len(want) {
			t.Fatalf("site %d: arena ring has %d vertices, want %d", i, view.Len(), len(want))
		}
		for j := range want {
			if view.At(j) != want[j] {
				t.Fatalf("site %d vertex %d: arena %v != %v", i, j, view.At(j), want[j])
			}
		}
	}
}
