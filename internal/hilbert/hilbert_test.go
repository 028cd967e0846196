package hilbert

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// dToXY converts a distance along the Hilbert curve of the given order back
// to grid coordinates. It is the inverse of xyToD, the oracle of the
// round-trip and continuity tests.
func dToXY(order uint, d uint64) (x, y uint32) {
	t := d
	for s := uint32(1); s < uint32(1)<<order; s <<= 1 {
		rx := uint32(1) & uint32(t/2)
		ry := uint32(1) & uint32(t^uint64(rx))
		x, y = rot(s, x, y, rx, ry)
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

func TestRoundTripExhaustiveSmallOrder(t *testing.T) {
	const order = 4 // 16x16 grid, 256 cells
	seen := make(map[uint64]bool)
	for x := uint32(0); x < 1<<order; x++ {
		for y := uint32(0); y < 1<<order; y++ {
			d := xyToD(order, x, y)
			if d >= 1<<(2*order) {
				t.Fatalf("d out of range: (%d,%d) -> %d", x, y, d)
			}
			if seen[d] {
				t.Fatalf("duplicate curve position %d for (%d,%d)", d, x, y)
			}
			seen[d] = true
			gx, gy := dToXY(order, d)
			if gx != x || gy != y {
				t.Fatalf("round trip (%d,%d) -> %d -> (%d,%d)", x, y, d, gx, gy)
			}
		}
	}
	if len(seen) != 1<<(2*order) {
		t.Fatalf("curve not a bijection: %d distinct positions", len(seen))
	}
}

func TestCurveContinuity(t *testing.T) {
	// Consecutive curve positions must be 4-neighbors on the grid: the
	// defining property of a Hilbert curve.
	const order = 5
	px, py := dToXY(order, 0)
	for d := uint64(1); d < 1<<(2*order); d++ {
		x, y := dToXY(order, d)
		dx := int64(x) - int64(px)
		dy := int64(y) - int64(py)
		if dx*dx+dy*dy != 1 {
			t.Fatalf("curve jump at d=%d: (%d,%d) -> (%d,%d)", d, px, py, x, y)
		}
		px, py = x, y
	}
}

func TestRoundTripPropertyOrder16(t *testing.T) {
	f := func(x, y uint32) bool {
		x %= 1 << order
		y %= 1 << order
		gx, gy := dToXY(order, xyToD(order, x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// key is the curve index Runs sorts a point of the unit square by.
func key(x, y float64) uint64 {
	return xyToD(order, grid(x, 0, 1), grid(y, 0, 1))
}

func TestGridClamps(t *testing.T) {
	if lo, inside := key(-10, 0.5), key(0.5, 0.5); lo == inside {
		t.Error("clamped low x should map to a corner column, not center")
	}
	// Out-of-range values must not panic and must clamp to the box.
	if got, want := key(-5, -5), key(0, 0); got != want {
		t.Errorf("clamp below: got %d, want %d", got, want)
	}
	if got, want := key(5, 5), key(1, 1); got != want {
		t.Errorf("clamp above: got %d, want %d", got, want)
	}
	if got, want := grid(1, 0, 1), uint32(1<<order-1); got != want {
		t.Errorf("upper edge: column %d, want %d", got, want)
	}
}

func TestGridDegenerateBox(t *testing.T) {
	// A zero-span axis maps everything to column 0.
	for _, v := range []float64{2, 7, -4} {
		if got := grid(v, 2, 2); got != 0 {
			t.Errorf("flat axis: %v maps to %d, want 0", v, got)
		}
	}
	pts := []geom.Point{{X: 2, Y: 3}, {X: 7, Y: -4}, {X: 2, Y: 3}}
	if got := Runs(pts, geom.NewRect(2, 3, 2, 3), 1)[0]; !slices.Equal(got, []int32{0, 1, 2}) {
		t.Errorf("degenerate box: order %v, want index order", got)
	}
}

func TestGridLocality(t *testing.T) {
	// Statistical sanity: for random nearby pairs, Hilbert distance should
	// usually be smaller than for random far pairs.
	rng := rand.New(rand.NewSource(7))
	nearWins := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		x, y := rng.Float64()*0.9, rng.Float64()*0.9
		dNear := absDiff(key(x, y), key(x+0.001, y+0.001))
		fx, fy := rng.Float64(), rng.Float64()
		dFar := absDiff(key(x, y), key(fx, fy))
		if dNear <= dFar {
			nearWins++
		}
	}
	if frac := float64(nearWins) / trials; frac < 0.9 {
		t.Errorf("near pairs closer on curve only %.1f%% of trials, want >= 90%%", frac*100)
	}
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

func BenchmarkXYToD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		xyToD(order, uint32(i)&0xffff, uint32(i>>8)&0xffff)
	}
}

func TestRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	bounds := geom.NewRect(0, 0, 1, 1)
	for _, tc := range []struct{ n, parts int }{
		{0, 4}, {1, 1}, {1, 5}, {7, 3}, {100, 1}, {100, 7}, {100, 100}, {100, 250}, {64, 0},
	} {
		// A 10 × 10 lattice: with 100 points, equal keys are likely.
		pts := make([]geom.Point, tc.n)
		for i := range pts {
			pts[i] = geom.Point{X: float64(rng.Intn(10)) / 9, Y: float64(rng.Intn(10)) / 9}
		}
		runs := Runs(pts, bounds, tc.parts)
		wantParts := max(1, min(tc.parts, tc.n))
		if len(runs) != wantParts {
			t.Errorf("n=%d parts=%d: got %d runs, want %d", tc.n, tc.parts, len(runs), wantParts)
		}
		if tc.n == 0 {
			if len(runs) == 1 && len(runs[0]) != 0 {
				t.Errorf("n=0: got run %v, want one empty run", runs[0])
			}
			continue
		}
		seen := make(map[int32]bool, tc.n)
		var prevKey uint64
		var prevIdx int32
		total := 0
		first := true
		minSize, maxSize := tc.n, 0
		for _, run := range runs {
			if len(run) == 0 {
				t.Fatalf("n=%d parts=%d: empty run", tc.n, tc.parts)
			}
			minSize, maxSize = min(minSize, len(run)), max(maxSize, len(run))
			for _, idx := range run {
				if seen[idx] {
					t.Fatalf("index %d assigned twice", idx)
				}
				seen[idx] = true
				total++
				k := key(pts[idx].X, pts[idx].Y)
				if !first && (k < prevKey || (k == prevKey && idx < prevIdx)) {
					t.Fatalf("n=%d parts=%d: order violated at index %d", tc.n, tc.parts, idx)
				}
				prevKey, prevIdx, first = k, idx, false
			}
		}
		if total != tc.n {
			t.Errorf("n=%d parts=%d: %d indexes assigned", tc.n, tc.parts, total)
		}
		if maxSize-minSize > 1 || len(runs[0]) != maxSize {
			t.Errorf("n=%d parts=%d: run sizes range %d..%d, want near-equal, longest first", tc.n, tc.parts, minSize, maxSize)
		}
	}
}
