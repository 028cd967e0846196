package geom

import (
	"math"
	"math/rand"
	"testing"
)

// ViewRing returns a view over a copy of r's coordinates — what the packed
// cell arena holds for every cell; the tests build one per ring.
func ViewRing(r Ring) RingView {
	v := RingView{XS: make([]float64, len(r)), YS: make([]float64, len(r))}
	for i, p := range r {
		v.XS[i], v.YS[i] = p.X, p.Y
	}
	return v
}

// Ring materializes the view as a Ring, for comparison with the ring it was
// built from.
func (v RingView) Ring() Ring {
	if len(v.XS) == 0 {
		return nil
	}
	r := make(Ring, len(v.XS))
	for i := range v.XS {
		r[i] = Point{v.XS[i], v.YS[i]}
	}
	return r
}

// randomConvexRing builds a convex ring by sorting random angles around a
// center — the shape class Voronoi cells fall in.
func randomConvexRing(rng *rand.Rand, n int) Ring {
	angles := make([]float64, n)
	for i := range angles {
		angles[i] = rng.Float64() * 6.283185307179586
	}
	for i := 1; i < n; i++ { // insertion sort: tiny n
		for j := i; j > 0 && angles[j] < angles[j-1]; j-- {
			angles[j], angles[j-1] = angles[j-1], angles[j]
		}
	}
	cx, cy := 0.3+0.4*rng.Float64(), 0.3+0.4*rng.Float64()
	radius := 0.05 + 0.2*rng.Float64()
	r := make(Ring, n)
	for i, a := range angles {
		r[i] = Pt(cx+radius*math.Cos(a), cy+radius*math.Sin(a))
	}
	return r
}

func TestRingViewMatchesRing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		ring := randomConvexRing(rng, 3+rng.Intn(9))
		v := ViewRing(ring)
		if v.Len() != len(ring) {
			t.Fatalf("Len = %d, want %d", v.Len(), len(ring))
		}
		for i := range ring {
			if v.At(i) != ring[i] {
				t.Fatalf("At(%d) = %v, want %v", i, v.At(i), ring[i])
			}
		}
		if got := v.Ring(); len(got) != len(ring) {
			t.Fatalf("materialized ring has %d vertices, want %d", len(got), len(ring))
		}
		if v.Bounds() != ring.Bounds() {
			t.Fatalf("Bounds = %v, want %v", v.Bounds(), ring.Bounds())
		}
		pg := Polygon{Outer: ring}
		// Probe containment on a grid plus the vertices themselves
		// (boundary cases must agree too).
		for gx := 0; gx <= 10; gx++ {
			for gy := 0; gy <= 10; gy++ {
				p := Pt(float64(gx)/10, float64(gy)/10)
				if v.ContainsPoint(p) != pg.ContainsPoint(p) {
					t.Fatalf("ContainsPoint(%v) = %v, polygon says %v", p, v.ContainsPoint(p), pg.ContainsPoint(p))
				}
			}
		}
		for _, p := range ring {
			if !v.ContainsPoint(p) {
				t.Fatalf("vertex %v not contained in its own ring view", p)
			}
		}
	}
}

func TestRingViewEmpty(t *testing.T) {
	var v RingView
	if v.Len() != 0 {
		t.Fatalf("empty view Len = %d", v.Len())
	}
	if v.Ring() != nil {
		t.Fatalf("empty view materialized to %v, want nil", v.Ring())
	}
	if b := v.Bounds(); b.MinX <= b.MaxX {
		t.Fatalf("empty view bounds %v not empty", b)
	}
	if v.ContainsPoint(Pt(0, 0)) {
		t.Fatal("empty view contains a point")
	}
}

func TestPreparedIntersectsRingViewMatchesRing(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		poly := Polygon{Outer: randomConvexRing(rng, 3+rng.Intn(9))}
		pp := Prepare(poly)
		for probe := 0; probe < 40; probe++ {
			ring := randomConvexRing(rng, 3+rng.Intn(9))
			want := poly.IntersectsRing(ring)
			if got := pp.IntersectsRingView(ViewRing(ring)); got != want {
				t.Fatalf("trial %d probe %d: IntersectsRingView = %v, Polygon.IntersectsRing = %v\npoly %v\nring %v",
					trial, probe, got, want, poly.Outer, ring)
			}
		}
		if pp.IntersectsRingView(RingView{}) {
			t.Fatal("prepared polygon intersects an empty ring view")
		}
	}
}
