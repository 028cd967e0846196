package robust

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// orient2DBig evaluates the orientation determinant entirely in big.Rat as
// an oracle.
func orient2DBig(ax, ay, bx, by, cx, cy float64) int {
	acx := new(big.Rat).Sub(rat(ax), rat(cx))
	bcy := new(big.Rat).Sub(rat(by), rat(cy))
	acy := new(big.Rat).Sub(rat(ay), rat(cy))
	bcx := new(big.Rat).Sub(rat(bx), rat(cx))
	l := new(big.Rat).Mul(acx, bcy)
	r := new(big.Rat).Mul(acy, bcx)
	return l.Cmp(r)
}

func TestOrient2DBasic(t *testing.T) {
	tests := []struct {
		name                   string
		ax, ay, bx, by, cx, cy float64
		want                   int
	}{
		{"ccw", 0, 0, 1, 0, 0, 1, 1},
		{"cw", 0, 0, 0, 1, 1, 0, -1},
		{"collinear-horizontal", 0, 0, 1, 0, 2, 0, 0},
		{"collinear-diagonal", 0, 0, 1, 1, 2, 2, 0},
		{"collinear-repeated", 3, 4, 3, 4, 1, 2, 0},
		{"tiny-ccw", 0, 0, 1e-30, 0, 0, 1e-30, 1},
		{"large-ccw", 1e15, 1e15, 0, 1e15, 1e15, 0, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := Orient2D(tc.ax, tc.ay, tc.bx, tc.by, tc.cx, tc.cy)
			if got != tc.want {
				t.Errorf("Orient2D = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestOrient2DNearDegenerate(t *testing.T) {
	// Points almost exactly on the line y = x, perturbed by one ulp. The
	// float64 fast path cannot decide these; the exact fallback must.
	base := 12345.6789
	a := [2]float64{0, 0}
	b := [2]float64{base, base}
	onLine := base / 2
	above := math.Nextafter(onLine, math.Inf(1))
	below := math.Nextafter(onLine, math.Inf(-1))

	if got := Orient2D(a[0], a[1], b[0], b[1], onLine, onLine); got != 0 {
		t.Errorf("point exactly on line: got %d, want 0", got)
	}
	if got := Orient2D(a[0], a[1], b[0], b[1], onLine, above); got != 1 {
		t.Errorf("point one ulp above line: got %d, want 1", got)
	}
	if got := Orient2D(a[0], a[1], b[0], b[1], onLine, below); got != -1 {
		t.Errorf("point one ulp below line: got %d, want -1", got)
	}
}

func TestOrient2DMatchesExactOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		// Mix of scales, including clustered coordinates that stress the
		// error bound.
		scale := math.Pow(10, float64(rng.Intn(12))-6)
		ax, ay := rng.Float64()*scale, rng.Float64()*scale
		bx, by := rng.Float64()*scale, rng.Float64()*scale
		cx, cy := rng.Float64()*scale, rng.Float64()*scale
		if got, want := Orient2D(ax, ay, bx, by, cx, cy), orient2DBig(ax, ay, bx, by, cx, cy); got != want {
			t.Fatalf("Orient2D(%v,%v,%v,%v,%v,%v) = %d, oracle %d",
				ax, ay, bx, by, cx, cy, got, want)
		}
	}
}

func TestOrient2DGridDegeneracies(t *testing.T) {
	// Every triple from a small grid: many exact collinearities.
	var pts [][2]float64
	for x := 0; x < 5; x++ {
		for y := 0; y < 5; y++ {
			pts = append(pts, [2]float64{float64(x) * 0.1, float64(y) * 0.1})
		}
	}
	for _, a := range pts {
		for _, b := range pts {
			for _, c := range pts {
				got := Orient2D(a[0], a[1], b[0], b[1], c[0], c[1])
				want := orient2DBig(a[0], a[1], b[0], b[1], c[0], c[1])
				if got != want {
					t.Fatalf("grid triple %v %v %v: got %d want %d", a, b, c, got, want)
				}
			}
		}
	}
}

func TestOrient2DAntisymmetry(t *testing.T) {
	// Swapping two arguments must negate the sign.
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		if anyNaNInf(ax, ay, bx, by, cx, cy) {
			return true
		}
		return Orient2D(ax, ay, bx, by, cx, cy) == -Orient2D(bx, by, ax, ay, cx, cy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestOrient2DCyclicInvariance(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		if anyNaNInf(ax, ay, bx, by, cx, cy) {
			return true
		}
		o1 := Orient2D(ax, ay, bx, by, cx, cy)
		o2 := Orient2D(bx, by, cx, cy, ax, ay)
		o3 := Orient2D(cx, cy, ax, ay, bx, by)
		return o1 == o2 && o2 == o3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestInCircleBasic(t *testing.T) {
	// Unit circle through (1,0), (0,1), (-1,0); origin is inside, (2,2)
	// outside, (0,-1) exactly on it.
	if got := InCircle(1, 0, 0, 1, -1, 0, 0, 0); got != 1 {
		t.Errorf("origin inside unit circle: got %d, want 1", got)
	}
	if got := InCircle(1, 0, 0, 1, -1, 0, 2, 2); got != -1 {
		t.Errorf("(2,2) outside unit circle: got %d, want -1", got)
	}
	if got := InCircle(1, 0, 0, 1, -1, 0, 0, -1); got != 0 {
		t.Errorf("(0,-1) cocircular: got %d, want 0", got)
	}
}

func TestInCircleCocircularGrid(t *testing.T) {
	// Four corners of a square are cocircular — a classic Delaunay
	// degeneracy that float64 alone often gets wrong.
	cases := [][8]float64{
		{0, 0, 1, 0, 1, 1, 0, 1},
		{0, 0, 2, 0, 2, 2, 0, 2},
		{0.1, 0.1, 0.3, 0.1, 0.3, 0.3, 0.1, 0.3},
		{1e6, 1e6, 1e6 + 1, 1e6, 1e6 + 1, 1e6 + 1, 1e6, 1e6 + 1},
	}
	for _, c := range cases {
		if got := InCircle(c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]); got != 0 {
			t.Errorf("square corners %v: got %d, want 0 (cocircular)", c, got)
		}
	}
}

func TestInCirclePerturbation(t *testing.T) {
	// Perturb the fourth point of a cocircular quadruple by one ulp in each
	// direction; the sign must flip accordingly. CCW triangle (1,0),(0,1),(-1,0);
	// fourth point near (0,-1). Moving it toward the origin puts it inside.
	inside := math.Nextafter(-1, 0)   // slightly above -1 → inside
	outside := math.Nextafter(-1, -2) // slightly below -1 → outside
	if got := InCircle(1, 0, 0, 1, -1, 0, 0, inside); got != 1 {
		t.Errorf("one ulp inside: got %d, want 1", got)
	}
	if got := InCircle(1, 0, 0, 1, -1, 0, 0, outside); got != -1 {
		t.Errorf("one ulp outside: got %d, want -1", got)
	}
}

func TestInCircleMatchesExactOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		vals := make([]float64, 8)
		scale := math.Pow(10, float64(rng.Intn(8))-4)
		for j := range vals {
			vals[j] = rng.Float64() * scale
		}
		got := InCircle(vals[0], vals[1], vals[2], vals[3], vals[4], vals[5], vals[6], vals[7])
		want := inCircleExact(vals[0], vals[1], vals[2], vals[3], vals[4], vals[5], vals[6], vals[7])
		if got != want {
			t.Fatalf("InCircle(%v) = %d, oracle %d", vals, got, want)
		}
	}
}

// TestInCircleOwnCornerIsZero pins the equality package delaunay relies on
// when it answers "a triangle's corner is not inside its circumcircle"
// without calling InCircle: for x in {a, b, c} the determinant is identically
// zero, at any magnitude and for degenerate triangles too.
func TestInCircleOwnCornerIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	triples := [][6]float64{
		{0, 0, 1, 0, 0, 1},
		{0, 0, 1, 1, 2, 2},             // collinear
		{0.1, 0.2, 0.1, 0.2, 0.3, 0.4}, // a == b
		{1e300, -1e300, -1e300, 1e300, 1e300, 1e300},
		{5e-324, 0, 0, 5e-324, -5e-324, -5e-324},
		{math.MaxFloat64, 0, 0, math.MaxFloat64, -math.MaxFloat64, -math.MaxFloat64},
		{1e-300, 1e300, 1, -1, 1e300, 1e-300},
	}
	for i := 0; i < 2000; i++ {
		scale := math.Pow(10, float64(rng.Intn(41))-20)
		var tr [6]float64
		for j := range tr {
			tr[j] = (rng.Float64() - 0.5) * scale
		}
		triples = append(triples, tr)
	}
	for _, tr := range triples {
		for k := 0; k < 3; k++ {
			x, y := tr[2*k], tr[2*k+1]
			if got := InCircle(tr[0], tr[1], tr[2], tr[3], tr[4], tr[5], x, y); got != 0 {
				t.Fatalf("InCircle(%v, corner %d) = %d, want 0", tr, k, got)
			}
		}
	}
}

func TestInCircleOrientationFlip(t *testing.T) {
	// Reversing the triangle's orientation must negate the in-circle sign.
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		if anyNaNInf(ax, ay, bx, by, cx, cy, dx, dy) {
			return true
		}
		s1 := InCircle(ax, ay, bx, by, cx, cy, dx, dy)
		s2 := InCircle(bx, by, ax, ay, cx, cy, dx, dy)
		return s1 == -s2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func anyNaNInf(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

func BenchmarkOrient2DFastPath(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	coords := make([][6]float64, 1024)
	for i := range coords {
		for j := 0; j < 6; j++ {
			coords[i][j] = rng.Float64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := coords[i%len(coords)]
		Orient2D(c[0], c[1], c[2], c[3], c[4], c[5])
	}
}

func BenchmarkOrient2DExactFallback(b *testing.B) {
	// Collinear inputs always hit the exact path.
	for i := 0; i < b.N; i++ {
		Orient2D(0, 0, 1.1, 1.1, 2.2, 2.2)
	}
}

func BenchmarkInCircleFastPath(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	coords := make([][8]float64, 1024)
	for i := range coords {
		for j := 0; j < 8; j++ {
			coords[i][j] = rng.Float64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := coords[i%len(coords)]
		InCircle(c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7])
	}
}

// TestOrient2DUnderflow pins triples whose products flush to zero or land
// in the subnormal range, where a relative error bound says nothing: each
// once made the float filter return a sign the exact determinant denies.
func TestOrient2DUnderflow(t *testing.T) {
	triples := [][6]float64{
		// Both products flush to zero, none of their factors is zero.
		{1.9196119217864076e-239, -3.8558717841646146e-179, 0, 9.476190496762957e-176, 4.05242040733745e-225, -3.506894958413445e-192},
		{-5.6482496838348847e-182, -9.125239518216767e-210, 1.1794095647455688e-235, -2.6816668758910256e-248, -1.7520459874976193e-207, 2.190057484372024e-208},
		// The left product is exactly zero, the right one flushes.
		{-3.1286113552061965e-248, 0, -2.8883110013837273e-275, 0, -2e-323, -3.971417272549486e-150},
		// Both products round to the same subnormal: 1.5 and 2.0 × 2^-1074.
		{0x1.8p-537, 0x1.4p-537, 0x1.999999999999ap-537, 0x1p-537, 0, 0},
	}
	for _, tr := range triples {
		got := Orient2D(tr[0], tr[1], tr[2], tr[3], tr[4], tr[5])
		if want := orient2DBig(tr[0], tr[1], tr[2], tr[3], tr[4], tr[5]); got != want || want == 0 {
			t.Errorf("Orient2D(%v) = %d, exact %d", tr, got, want)
		}
	}
}

// TestInCircleUnderflow checks the in-circle filter against the exact
// determinant at scales where its degree-two and degree-four products
// underflow, half the time with one far coordinate to keep a lift large.
func TestInCircleUnderflow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 3000; i++ {
		var v [8]float64
		for j := range v {
			if rng.Intn(4) == 0 {
				continue
			}
			v[j] = math.Ldexp(float64(1+rng.Intn(16))/8, -290+rng.Intn(40))
			if rng.Intn(2) == 0 {
				v[j] = -v[j]
			}
		}
		if rng.Intn(2) == 0 {
			v[rng.Intn(8)] = math.Ldexp(1, -100+rng.Intn(200))
		}
		got := InCircle(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7])
		if want := inCircleExact(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]); got != want {
			t.Fatalf("InCircle(%v) = %d, exact %d", v, got, want)
		}
	}
}

// FuzzOrient2DExact compares Orient2D with the exact determinant over raw
// float64 bit patterns: subnormals, zeros of either sign and magnitudes up
// to 1e300, where the differences cannot overflow. On NaN, ±Inf and larger
// magnitudes it asks only that Orient2D returns.
func FuzzOrient2DExact(f *testing.F) {
	for _, s := range [][6]float64{
		{0, 0, 1, 0, 0, 1},
		{1.9196119217864076e-239, -3.8558717841646146e-179, 0, 9.476190496762957e-176, 4.05242040733745e-225, -3.506894958413445e-192},
		{0x1.8p-537, 0x1.4p-537, 0x1.999999999999ap-537, 0x1p-537, 0, 0},
		{5e-324, 0, 0, 5e-324, -5e-324, -5e-324},
		{1e300, -1e300, -1e300, 1e300, 1e300, 1e300},
		{1e300, 1e300, -1e300, -1e300, 1e-300, 1e-300},
		// Non-finite triples whose products cancel to NaN, or turn NaN,
		// after the filter: the exact stage used to take them to big.Rat,
		// which holds no NaN or ±Inf, and panic.
		{0, 0, 0, 0, 1, math.Inf(1)},
		{1, math.NaN(), 0, 1, 0, 0},
	} {
		var u [6]uint64
		for i, x := range s {
			u[i] = math.Float64bits(x)
		}
		f.Add(u[0], u[1], u[2], u[3], u[4], u[5])
	}
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g uint64) {
		var v [6]float64
		for i, u := range [6]uint64{a, b, c, d, e, g} {
			v[i] = math.Float64frombits(u)
		}
		got := Orient2D(v[0], v[1], v[2], v[3], v[4], v[5]) // returns on every input
		for _, x := range v {
			if !(math.Abs(x) <= 1e300) { // NaN, ±Inf, or differences that can overflow
				return
			}
		}
		if want := orient2DBig(v[0], v[1], v[2], v[3], v[4], v[5]); got != want {
			t.Fatalf("Orient2D(%v) = %d, exact %d", v, got, want)
		}
	})
}
