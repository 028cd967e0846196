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

// The CSR arrays an engine keeps (Adjacency) give every site the degree and
// the list Neighbors reports.
func TestDegreeMatchesNeighborsLen(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 500
	tr, err := Build(uniformPoints(rng, n))
	if err != nil {
		t.Fatal(err)
	}
	off, nbrs := tr.Adjacency()
	for i := 0; i < n; i++ {
		if got, want := nbrs[off[i]:off[i+1]], tr.Neighbors(i); !slices.Equal(got, want) {
			t.Fatalf("site %d: CSR row %v != Neighbors %v", i, got, want)
		}
	}
}

func TestAccessors(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(1, 0)}
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
