package robust

import (
	"math"
	"math/big"
	"testing"
)

// crossingBig is the reference for CrossingOrder: N = |s−a|² − |c−a|² and
// E = 2(s−c)·(b−a) in big.Rat, written in the other form of N.
func crossingBig(a, b, c, s [2]float64) (n, e *big.Rat) {
	d2 := func(p, q [2]float64) *big.Rat {
		dx := new(big.Rat).Sub(rat(p[0]), rat(q[0]))
		dy := new(big.Rat).Sub(rat(p[1]), rat(q[1]))
		return new(big.Rat).Add(new(big.Rat).Mul(dx, dx), new(big.Rat).Mul(dy, dy))
	}
	n = new(big.Rat).Sub(d2(s, a), d2(c, a))
	ux := new(big.Rat).Sub(rat(s[0]), rat(c[0]))
	uy := new(big.Rat).Sub(rat(s[1]), rat(c[1]))
	wx := new(big.Rat).Sub(rat(b[0]), rat(a[0]))
	wy := new(big.Rat).Sub(rat(b[1]), rat(a[1]))
	e = new(big.Rat).Add(new(big.Rat).Mul(ux, wx), new(big.Rat).Mul(uy, wy))
	return n, e.Add(e, e)
}

// crossingOrderBig returns sign(N_p·E_q − N_q·E_p), with q the site q or,
// for kind 1–3, the constant AtStart, AtEnd or AtInfinity.
func crossingOrderBig(a, b, c, p, q [2]float64, kind int) int {
	np, ep := crossingBig(a, b, c, p)
	var nq, eq *big.Rat
	switch kind {
	case 1:
		nq, eq = big.NewRat(0, 1), big.NewRat(1, 1)
	case 2:
		nq, eq = big.NewRat(1, 1), big.NewRat(1, 1)
	case 3:
		nq, eq = big.NewRat(1, 1), big.NewRat(0, 1)
	default:
		nq, eq = crossingBig(a, b, c, q)
	}
	return new(big.Rat).Mul(np, eq).Cmp(new(big.Rat).Mul(nq, ep))
}

// crossingOrder runs CrossingOrder of p against q (or the constant kind
// names) in the frame of a→b and c, and reports whether the exact stage
// ran. Against AtInfinity it also holds Heading, the same comparison with
// its filter inline, to the negated sign.
func crossingOrder(t testing.TB, a, b, c, p, q [2]float64, kind int) (sign int, exact bool) {
	t.Helper()
	f := NewFrame(a[0], a[1], b[0], b[1], c[0], c[1])
	var cp, cq Crossing
	f.Crossing(&cp, p[0], p[1])
	switch kind {
	case 1:
		cq = AtStart
	case 2:
		cq = AtEnd
	case 3:
		cq = AtInfinity
	default:
		f.Crossing(&cq, q[0], q[1])
	}
	sign = f.CrossingOrder(&cp, &cq)
	exact = f.Exact() > 0
	if kind == 3 {
		if h := f.Heading(&cp); h != -sign {
			t.Errorf("Heading(a=%v b=%v c=%v p=%v) = %d, CrossingOrder against AtInfinity %d", a, b, c, p, h, sign)
		}
	}
	return sign, exact
}

func TestCrossingOrderBasic(t *testing.T) {
	a, b := [2]float64{0, 0}, [2]float64{1, 1}
	c := [2]float64{0, 0}
	right, up, far := [2]float64{1, 0}, [2]float64{0, 1}, [2]float64{3, 0}
	for _, tc := range []struct {
		name    string
		p, q    [2]float64
		kind    int
		want    int
		exactOK bool
	}{
		// Both bisectors (x = 1/2 and y = 1/2) cross the diagonal at t = 1/2:
		// a Voronoi vertex on the segment, decided by the exact stage.
		{"equal crossings", right, up, 0, 0, true},
		{"nearer bisector first", right, far, 0, -1, false},
		{"farther bisector second", far, right, 0, 1, false},
		{"N > 0: c is nearer at a", right, right, 1, 1, false},
		{"t = 1/2 before the end", right, right, 2, -1, false},
		{"t = 3/2 after the end", far, far, 2, 1, false},
		{"E > 0: heading toward p", right, right, 3, -1, false},
	} {
		got, exact := crossingOrder(t, a, b, c, tc.p, tc.q, tc.kind)
		if got != tc.want {
			t.Errorf("%s: sign %d, want %d", tc.name, got, tc.want)
		}
		if exact && !tc.exactOK {
			t.Errorf("%s: the filter should have decided", tc.name)
		}
		if want := crossingOrderBig(a, b, c, tc.p, tc.q, tc.kind); got != want {
			t.Errorf("%s: sign %d, reference %d", tc.name, got, want)
		}
	}
}

// TestCrossingOrderEndOnBisector: a segment ending on the bisector of c and
// p compares equal to AtEnd, and one lying along it has N = E = 0.
func TestCrossingOrderEndOnBisector(t *testing.T) {
	c, p := [2]float64{0, 0}, [2]float64{1, 0}
	if got, _ := crossingOrder(t, [2]float64{0, 0.25}, [2]float64{0.5, 0.75}, c, p, p, 2); got != 0 {
		t.Errorf("segment ending on the bisector: sign vs AtEnd %d, want 0", got)
	}
	along := [2][2]float64{{0.5, 0}, {0.5, 1}}
	for kind := 1; kind <= 3; kind += 2 {
		if got, _ := crossingOrder(t, along[0], along[1], c, p, p, kind); got != 0 {
			t.Errorf("segment along the bisector: sign vs constant %d = %d, want 0", kind, got)
		}
	}
}

func FuzzCrossingOrderExact(f *testing.F) {
	tiny := 0x1p-1060
	for _, s := range []struct {
		v    [10]float64
		kind uint8
	}{
		// a, b, c, p, q: the diagonal through the Voronoi vertex of a square.
		{[10]float64{0, 0, 1, 1, 0, 0, 1, 0, 0, 1}, 0},
		{[10]float64{0, 0, 1, 1, 0, 0, 1, 0, 0, 1}, 2},
		// The same scaled into the subnormals, where every product underflows.
		{[10]float64{0, 0, tiny, tiny, 0, 0, tiny, 0, 0, tiny}, 0},
		{[10]float64{5e-324, 0, 0, 5e-324, -5e-324, 0, 0, -5e-324, 5e-324, 5e-324}, 1},
		// A segment along the bisector of c and p.
		{[10]float64{0.5, 0, 0.5, 1, 0, 0, 1, 0, 2, 0}, 3},
		// A lattice segment through a cocircular vertex off the grid.
		{[10]float64{0.0625, 0.125, 0.3125, 0.4375, 0.125, 0.125, 0.25, 0.375, 0.375, 0.25}, 0},
		{[10]float64{1e150, -1e150, -1e150, 1e150, 1e-150, 1e-150, 3e149, 2e149, -2e149, 1e149}, 0},
	} {
		var u [10]uint64
		for i, x := range s.v {
			u[i] = math.Float64bits(x)
		}
		f.Add(u[0], u[1], u[2], u[3], u[4], u[5], u[6], u[7], u[8], u[9], s.kind)
	}
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, px, py, qx, qy uint64, kind uint8) {
		var v [10]float64
		for i, u := range [10]uint64{ax, ay, bx, by, cx, cy, px, py, qx, qy} {
			v[i] = math.Float64frombits(u)
			if math.IsNaN(v[i]) || math.Abs(v[i]) > 1e300 {
				return
			}
		}
		a, b, c := [2]float64{v[0], v[1]}, [2]float64{v[2], v[3]}, [2]float64{v[4], v[5]}
		p, q := [2]float64{v[6], v[7]}, [2]float64{v[8], v[9]}
		k := int(kind % 4)
		got, _ := crossingOrder(t, a, b, c, p, q, k)
		if want := crossingOrderBig(a, b, c, p, q, k); got != want {
			t.Fatalf("CrossingOrder(a=%v b=%v c=%v p=%v q=%v kind %d) = %d, exact %d", a, b, c, p, q, k, got, want)
		}
	})
}
