package delaunay

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

func TestAverageDegreeBelowSix(t *testing.T) {
	// Euler: average Delaunay degree < 6 for any planar point set.
	rng := rand.New(rand.NewSource(1))
	const n = 3000
	tr, err := Build(uniformPoints(rng, n))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < n; i++ {
		total += len(tr.Neighbors(i))
	}
	avg := float64(total) / n
	if avg >= 6 {
		t.Errorf("average degree %v, must be < 6", avg)
	}
	if avg < 5 {
		t.Errorf("average degree %v suspiciously low for a uniform set", avg)
	}
}

// Build's rings are Bulk's with the fence sites dropped: every site keeps
// its user neighbors, in the order Bulk's CSR row holds them.
func TestDegreeMatchesNeighborsLen(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 500
	pts := uniformPoints(rng, n)
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	_, off, nbrs := bulk(t, pts)
	for i := 0; i < n; i++ {
		row := slices.DeleteFunc(slices.Clone(nbrs[off[i]:off[i+1]]), func(nb int32) bool { return nb >= n })
		if got := tr.Neighbors(i); !slices.Equal(got, row) {
			t.Fatalf("site %d: Neighbors %v, CSR row without the fence %v", i, got, row)
		}
	}
}

func TestAccessors(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)}
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumSites() != 3 {
		t.Errorf("NumSites = %d", tr.NumSites())
	}
	for i, p := range pts {
		if tr.Point(i) != p {
			t.Errorf("Point(%d) = %v", i, tr.Point(i))
		}
	}
}

func TestDelaunayContainsNearestNeighborGraph(t *testing.T) {
	// Property 6 of the paper: each point's nearest neighbor is among its
	// Delaunay neighbors.
	rng := rand.New(rand.NewSource(3))
	pts := uniformPoints(rng, 400)
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		best, bestD := -1, 0.0
		for j, q := range pts {
			if i == j {
				continue
			}
			if d := p.Dist2(q); best == -1 || d < bestD {
				best, bestD = j, d
			}
		}
		found := false
		for _, nb := range tr.Neighbors(i) {
			if pts[nb].Dist2(p) == bestD {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("point %d: nearest neighbor %d not among Delaunay neighbors", i, best)
		}
	}
}

func TestVoronoiNeighborProperty2(t *testing.T) {
	// Property 2 of the paper: for a site q, the nearest other site is a
	// Voronoi neighbor of q. (Equivalent to Property 6 from the other
	// side; checked via the dual.)
	rng := rand.New(rand.NewSource(4))
	pts := uniformPoints(rng, 300)
	tr, err := Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		var bestD = -1.0
		for j, q := range pts {
			if i != j {
				if d := p.Dist2(q); bestD < 0 || d < bestD {
					bestD = d
				}
			}
		}
		ok := false
		for _, nb := range tr.Neighbors(i) {
			if p.Dist2(pts[nb]) == bestD {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("site %d: closest site is not a Voronoi neighbor", i)
		}
	}
}
