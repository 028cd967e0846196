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
	d := newDiagram(t, pts, unitBounds())
	for i := 0; i < len(pts); i += 7 {
		a := d.cell(i)
		b, _ := CellFromNeighbors(nil, nil, pts[i], d.tri.Neighbors(i), pts, unitBounds())
		if math.Abs(a.Area()-geom.Ring(b).Area()) > 1e-9 {
			t.Fatalf("site %d: diagram cell area %v, reconstructed %v", i, a.Area(), geom.Ring(b).Area())
		}
	}
}

func TestCellFromNeighborsNoNeighbors(t *testing.T) {
	// A site with no neighbors owns the whole clip rectangle.
	ring, _ := CellFromNeighbors(nil, nil, geom.Pt(0.5, 0.5), nil, nil, unitBounds())
	if area := geom.Ring(ring).Area(); math.Abs(area-1) > 1e-12 {
		t.Errorf("lone site cell area = %v, want 1", area)
	}
}

func TestCellFromNeighborsFarSite(t *testing.T) {
	// A site far outside the clip rect whose bisectors exclude the whole
	// rect yields an empty cell.
	ring, _ := CellFromNeighbors(nil, nil, geom.Pt(10, 10), []int32{0}, []geom.Point{geom.Pt(0.5, 0.5)}, unitBounds())
	if len(ring) != 0 {
		t.Errorf("far site should have empty clipped cell, got %v", ring)
	}
}
