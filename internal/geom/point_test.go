package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Cross(q); got != -4-6 {
		t.Errorf("Cross = %v", got)
	}
}

func TestDistances(t *testing.T) {
	a, b := Pt(0, 0), Pt(3, 4)
	if got := a.Dist(b); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := a.Dist2(b); got != 25 {
		t.Errorf("Dist2 = %v, want 25", got)
	}
	if got := a.Dist(a); got != 0 {
		t.Errorf("Dist to self = %v, want 0", got)
	}
}

func TestOrientWrapsRobust(t *testing.T) {
	if got := Orient(Pt(0, 0), Pt(1, 0), Pt(0, 1)); got != CounterClockwise {
		t.Errorf("ccw triple: got %v", got)
	}
	if got := Orient(Pt(0, 0), Pt(0, 1), Pt(1, 0)); got != Clockwise {
		t.Errorf("cw triple: got %v", got)
	}
	if got := Orient(Pt(0, 0), Pt(1, 1), Pt(2, 2)); got != Collinear {
		t.Errorf("collinear triple: got %v", got)
	}
}

func TestMidpointCommutes(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if anyBad(ax, ay, bx, by) {
			return true
		}
		return Midpoint(Pt(ax, ay), Pt(bx, by)) == Midpoint(Pt(bx, by), Pt(ax, ay))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistSymmetricProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if anyBad(ax, ay, bx, by) {
			return true
		}
		a, b := Pt(ax, ay), Pt(bx, by)
		return a.Dist2(b) == b.Dist2(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func anyBad(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
			return true
		}
	}
	return false
}
