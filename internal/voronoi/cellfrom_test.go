package voronoi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestCellFromNeighborsMatchesDiagramCell(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := uniformPoints(rng, 200)
	d, err := New(pts, unitBounds())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(pts); i += 7 {
		nbs := d.Triangulation().Neighbors(i)
		nbPts := make([]geom.Point, len(nbs))
		for j, nb := range nbs {
			nbPts[j] = pts[nb]
		}
		a := d.Cell(i)
		b := CellFromNeighbors(pts[i], nbPts, unitBounds())
		if math.Abs(a.Area()-b.Area()) > 1e-9 {
			t.Fatalf("site %d: diagram cell area %v, reconstructed %v", i, a.Area(), b.Area())
		}
	}
}

func TestCellFromNeighborsNoNeighbors(t *testing.T) {
	// A site with no neighbors owns the whole clip rectangle.
	ring := CellFromNeighbors(geom.Pt(0.5, 0.5), nil, unitBounds())
	if math.Abs(ring.Area()-1) > 1e-12 {
		t.Errorf("lone site cell area = %v, want 1", ring.Area())
	}
}

func TestCellFromNeighborsFarSite(t *testing.T) {
	// A site far outside the clip rect whose bisectors exclude the whole
	// rect yields an empty (nil) cell.
	ring := CellFromNeighbors(
		geom.Pt(10, 10),
		[]geom.Point{geom.Pt(0.5, 0.5)},
		unitBounds(),
	)
	if ring != nil {
		t.Errorf("far site should have empty clipped cell, got %v", ring)
	}
}
