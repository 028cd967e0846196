package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewCircleClampsRadius(t *testing.T) {
	c := NewCircle(Pt(1, 2), -5)
	if c.R != 0 {
		t.Errorf("negative radius not clamped: %v", c.R)
	}
}

func TestCircleMeasures(t *testing.T) {
	c := NewCircle(Pt(1, 1), 2)
	if got := c.Bounds(); got != NewRect(-1, -1, 3, 3) {
		t.Errorf("Bounds = %v", got)
	}
	if math.Abs(c.Area()-4*math.Pi) > 1e-12 {
		t.Errorf("Area = %v", c.Area())
	}
	if math.Abs(c.Perimeter()-4*math.Pi) > 1e-12 {
		t.Errorf("Perimeter = %v", c.Perimeter())
	}
	if c.InteriorPoint() != Pt(1, 1) {
		t.Errorf("InteriorPoint = %v", c.InteriorPoint())
	}
}

func TestCircleContainsPoint(t *testing.T) {
	c := NewCircle(Pt(0, 0), 1)
	if !c.ContainsPoint(Pt(0, 0)) || !c.ContainsPoint(Pt(1, 0)) || !c.ContainsPoint(Pt(0.6, 0.6)) {
		t.Error("points inside/on circle misclassified")
	}
	if c.ContainsPoint(Pt(0.8, 0.8)) || c.ContainsPoint(Pt(1.0001, 0)) {
		t.Error("points outside circle misclassified")
	}
}

func TestCircleIntersectsSegment(t *testing.T) {
	c := NewCircle(Pt(0, 0), 1)
	cases := []struct {
		name string
		s    Segment
		want bool
	}{
		{"through center", Seg(Pt(-2, 0), Pt(2, 0)), true},
		{"chord", Seg(Pt(-2, 0.5), Pt(2, 0.5)), true},
		{"tangent", Seg(Pt(-2, 1), Pt(2, 1)), true},
		{"just missing", Seg(Pt(-2, 1.0001), Pt(2, 1.0001)), false},
		{"endpoint inside", Seg(Pt(0.5, 0), Pt(5, 5)), true},
		{"far away", Seg(Pt(3, 3), Pt(4, 4)), false},
		{"short segment inside", Seg(Pt(0.1, 0.1), Pt(0.2, 0.2)), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := c.IntersectsSegment(tc.s); got != tc.want {
				t.Errorf("IntersectsSegment = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestCircleContainsOnlyPointsInItsBounds: a point exactly at distance R
// can round to one ulp outside the disk's MBR. The disk then refuses it, as
// every MBR filter does. The circle is centred between (1/17, 0.5) and
// (12/17, 0.5) and passes through the first.
func TestCircleContainsOnlyPointsInItsBounds(t *testing.T) {
	a, b := Pt(1.0/17, 0.5), Pt(12.0/17, 0.5)
	center := Pt((a.X+b.X)/2, (a.Y+b.Y)/2)
	c := NewCircle(center, math.Sqrt(center.Dist2(a)))
	if c.Center.Dist2(a) > c.R*c.R || c.Bounds().ContainsPoint(a) {
		t.Fatalf("fixture: %v should be within R of the centre and outside %v", a, c.Bounds())
	}
	if c.ContainsPoint(a) {
		t.Errorf("%v lies outside the MBR %v, yet the disk contains it", a, c.Bounds())
	}
}

func TestCircleMonteCarloConsistency(t *testing.T) {
	// ContainsPoint vs Area cross-check.
	rng := rand.New(rand.NewSource(1))
	c := NewCircle(Pt(0.5, 0.5), 0.4)
	in := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if c.ContainsPoint(Pt(rng.Float64(), rng.Float64())) {
			in++
		}
	}
	got := float64(in) / n
	if math.Abs(got-c.Area()) > 0.01 {
		t.Errorf("Monte Carlo area %v vs analytic %v", got, c.Area())
	}
}
