package geom

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// breakerProbes returns the points chosen to break a grid over pg: every
// grid corner exactly and one ulp to each side of it in both axes, every
// vertex with its eight ulp-neighbors (one ulp off the two edges meeting
// there), every edge midpoint, non-finite points, and random points in and
// around the MBR. g supplies the borders; when the build refused, the same
// fractions of the MBR stand in. stride > 1 thins the corners and the
// random points.
func breakerProbes(pg Polygon, g *containGrid, stride int) []Point {
	rng := rand.New(rand.NewSource(1))
	b := pg.Bounds()
	var xs, ys [gridSize + 1]float64
	if g != nil {
		xs, ys = g.xs, g.ys
	} else {
		for i := range xs {
			f := float64(i) / gridSize
			xs[i], ys[i] = b.MinX+(b.MaxX-b.MinX)*f, b.MinY+(b.MaxY-b.MinY)*f
		}
	}
	around := func(v float64) [3]float64 {
		return [3]float64{math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1))}
	}
	var probes []Point
	for i := 0; i <= gridSize; i += stride {
		for j := 0; j <= gridSize; j += stride {
			for _, px := range around(xs[i]) {
				for _, py := range around(ys[j]) {
					probes = append(probes, Pt(px, py))
				}
			}
		}
	}
	pg.rings(func(r Ring) bool {
		for i, v := range r {
			for _, px := range around(v.X) {
				for _, py := range around(v.Y) {
					probes = append(probes, Pt(px, py))
				}
			}
			probes = append(probes, Midpoint(v, r[(i+1)%len(r)]))
		}
		return true
	})
	nan, inf := math.NaN(), math.Inf(1)
	c := b.Center()
	probes = append(probes, Pt(nan, c.Y), Pt(c.X, nan), Pt(nan, nan), Pt(inf, c.Y), Pt(c.X, -inf), Pt(-inf, inf))
	w, h := b.MaxX-b.MinX, b.MaxY-b.MinY
	for i := 0; i < 400; i += stride {
		probes = append(probes, Pt(b.MinX+w*(rng.Float64()*1.2-0.1), b.MinY+h*(rng.Float64()*1.2-0.1)))
	}
	return probes
}

// checkPreparedMatchesPolygon asserts Prepare(pg).ContainsPoint(p) ==
// pg.ContainsPoint(p) over breakerProbes plus extra, on a region pinned to
// the exact loop and on one driven past gridAfter through the public
// method, and that no edge touches a cell the grid calls inside or outside.
// It returns whether a grid was built.
//
// A polygon with a non-finite vertex never gets that far — the exact
// orientation predicate panics on NaN and ±Inf, in Prepare's anchor search
// and in the plain polygon alike — so for those the check is only that the
// builder, handed the edges directly, refuses without indexing anything.
//
// stride > 1 thins the probes and the cells checked, for polygons whose
// coordinates span so many magnitudes that every orientation test falls
// back to exact rational arithmetic, microseconds a call.
func checkPreparedMatchesPolygon(t *testing.T, pg Polygon, stride int, extra ...Point) bool {
	t.Helper()
	finite := true
	pg.rings(func(r Ring) bool {
		for _, v := range r {
			finite = finite && !math.IsNaN(v.X+v.Y) && !math.IsInf(v.X, 0) && !math.IsInf(v.Y, 0)
		}
		return true
	})
	if !finite {
		raw := &PreparedPolygon{pg: pg, bound: pg.Bounds()}
		pg.rings(func(r Ring) bool {
			for i, a := range r {
				b := r[(i+1)%len(r)]
				raw.edges = append(raw.edges, preparedEdge{a: a, b: b, bb: NewRect(a.X, a.Y, b.X, b.Y)})
			}
			return true
		})
		if newContainGrid(raw) != nil {
			t.Fatalf("grid built over a non-finite vertex\n%v", pg)
		}
		return false
	}
	before := Prepare(pg)
	before.exactTests.Store(gridAfter) // never builds: the state every region starts in
	after := Prepare(pg)
	if len(pg.Outer) > 0 {
		for i := 0; i < gridAfter; i++ {
			after.ContainsPoint(pg.Outer[0])
		}
	}
	g := after.grid.Load()
	if g == nil && after.exactTests.Load() == gridAfter && newContainGrid(after) != nil {
		t.Fatal("the gridAfter-th test did not publish the grid")
	}

	probes := append(breakerProbes(pg, g, stride), extra...)
	for _, p := range probes {
		want := pg.ContainsPoint(p)
		if got := before.ContainsPoint(p); got != want {
			t.Fatalf("exact loop: contains(%v) = %v, plain polygon %v\n%v", p, got, want, pg)
		}
		if got := after.ContainsPoint(p); got != want {
			t.Fatalf("grid: contains(%v) = %v, plain polygon %v\n%v", p, got, want, pg)
		}
	}
	if before.grid.Load() != nil {
		t.Fatal("a region past gridAfter built a grid after all")
	}
	if g == nil {
		return false
	}
	for iy := 0; iy < gridSize; iy++ {
		for ix := iy % stride; ix < gridSize; ix += stride {
			if g.class[iy*gridSize+ix] == cellBoundary {
				continue
			}
			cell := Rect{g.xs[ix], g.ys[iy], g.xs[ix+1], g.ys[iy+1]}
			for _, e := range after.edges {
				if e.bb.Intersects(cell) && Seg(e.a, e.b).IntersectsRect(cell) {
					t.Fatalf("cell (%d,%d) %v is class %d but edge %v-%v touches it\n%v",
						ix, iy, cell, g.class[iy*gridSize+ix], e.a, e.b, pg)
				}
			}
		}
	}
	return true
}

// scaled maps pg through p ↦ origin + s·p, ring structure kept.
func scaled(pg Polygon, s float64, origin Point) Polygon {
	out := pg.Clone()
	move := func(r Ring) {
		for i, p := range r {
			r[i] = origin.Add(p.Scale(s))
		}
	}
	move(out.Outer)
	for _, h := range out.Holes {
		move(h)
	}
	return out
}

func TestPreparedContainsMatchesPolygonOnGridBreakers(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ulps := func(v float64, n int) float64 {
		for ; n > 0; n-- {
			v = math.Nextafter(v, math.Inf(1))
		}
		return v
	}
	holed := unitSquare()
	for _, hole := range [][]Point{
		{Pt(0.25, 0.25), Pt(0.5, 0.25), Pt(0.5, 0.5), Pt(0.25, 0.5)}, // on grid lines
		{Pt(0.6, 0.6), Pt(0.9, 0.65), Pt(0.7, 0.93)},
	} {
		if err := holed.AddHole(hole); err != nil {
			t.Fatal(err)
		}
	}
	// Steps at multiples of 1/32 of a [0,1]² MBR: every edge lies exactly on
	// a grid line, every vertex on a grid corner.
	var stairs []Point
	for i := 0; i < 8; i++ {
		stairs = append(stairs, Pt(float64(i)/8, float64(i)/8), Pt(float64(i+1)/8, float64(i)/8))
	}
	stairs = append(stairs, Pt(1, 1), Pt(0, 1))
	star := randomStarPolygon(rng, 10)
	nan, inf := math.NaN(), math.Inf(1)

	cases := []struct {
		name     string
		pg       Polygon
		wantGrid bool
	}{
		{"unit square (edges on the outer borders)", unitSquare(), true},
		{"L (edges on inner grid lines)", lShape(), true},
		{"stairs on the 1/32 lattice", MustPolygon(stairs), true},
		{"holes, one on grid lines", holed, true},
		{"hole astray, outside the MBR", Polygon{Outer: unitSquare().Outer,
			Holes: []Ring{{Pt(0.5, 0.5), Pt(3, 0.5), Pt(3, 4), Pt(-2, 4)}, {Pt(5, 5), Pt(6, 5), Pt(6, 6)}}}, true},
		{"needle", MustPolygon([]Point{Pt(0, 0), Pt(1, 1e-9), Pt(1, 2e-9)}), true},
		{"diagonal sliver", MustPolygon([]Point{Pt(0, 0), Pt(1, 1), Pt(1, 1+1e-9)}), true},
		{"collinear and repeated vertices", Polygon{Outer: Ring{
			Pt(0, 0), Pt(0.5, 0), Pt(0.5, 0), Pt(1, 0), Pt(1, 0.25), Pt(1, 0.5), Pt(1, 1), Pt(0.75, 0.75), Pt(0.5, 0.5), Pt(0.25, 0.75), Pt(0, 1)}}, true},
		{"zigzag of two repeated slopes", MustPolygon([]Point{
			Pt(0, 0), Pt(4, 0), Pt(4, 1), Pt(3.5, 2), Pt(3, 1), Pt(2.5, 2), Pt(2, 1), Pt(1.5, 2), Pt(1, 1), Pt(0.5, 2), Pt(0, 1)}), true},
		{"self-intersecting bow tie", Polygon{Outer: Ring{Pt(0, 0), Pt(1, 1), Pt(1, 0), Pt(0, 1)}}, true},
		{"MBR three ulps high", Polygon{Outer: Ring{Pt(1, 1), Pt(2, 1), Pt(2, ulps(1, 3)), Pt(1, ulps(1, 2))}}, false},
		{"MBR without width", Polygon{Outer: Ring{Pt(1, 1), Pt(1, 2), Pt(1, 3)}}, false},
		{"star at 1e9", scaled(star, 1, Pt(1e9, -1e9)), true},
		{"small star at 1e9 (cells narrower than the pad allows)", scaled(star, 1e-4, Pt(1e9, 1e9)), false},
		{"star of 1e9", scaled(star, 1e9, Pt(0, 0)), true},
		{"star of 1e-9", scaled(star, 1e-9, Pt(0, 0)), true},
		{"star of 1e-9 at 1", scaled(star, 1e-9, Pt(1, 1)), true},
		{"star of 1e-300", scaled(star, 1e-300, Pt(0, 0)), false},
		{"star of 1e300", scaled(star, 1e300, Pt(0, 0)), false},
		{"NaN vertex", Polygon{Outer: Ring{Pt(0, 0), Pt(1, 0), Pt(nan, 1), Pt(0, 1)}}, false},
		{"+Inf vertex", Polygon{Outer: Ring{Pt(0, 0), Pt(1, 0), Pt(inf, 1), Pt(0, 1)}}, false},
		{"-Inf vertex in a hole", Polygon{Outer: unitSquare().Outer, Holes: []Ring{{Pt(0.2, 0.2), Pt(0.4, -inf), Pt(0.3, 0.6)}}}, false},
		{"empty", Polygon{}, false},
		{"one vertex", Polygon{Outer: Ring{Pt(1, 1)}}, false},
	}
	for k := 3; k <= 40; k++ {
		cases = append(cases, struct {
			name     string
			pg       Polygon
			wantGrid bool
		}{"star", randomStarPolygon(rng, k), true})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := checkPreparedMatchesPolygon(t, c.pg, 1); got != c.wantGrid {
				t.Fatalf("grid built = %v, want %v", got, c.wantGrid)
			}
		})
	}
}

// Mode bits of the fuzz target.
const (
	fuzzLattice = 1 << iota // snap coordinates onto the 1/64 lattice of [0,1]
	fuzzGiga                // scale by 1e9
	fuzzNano                // scale by 1e-9
	fuzzRaw                 // keep the bytes' own exponents, NaN and ±Inf included
)

// fuzzPolygon decodes the fuzzer's bytes: consecutive little-endian
// float64 pairs are vertices (at most 24); from vertex holeAt on they form
// a hole when that leaves both rings three vertices. A coordinate keeps its
// sign and mantissa, so a flipped low bit is an ulp; its exponent is folded
// into [2⁻⁸, 2⁸) unless mode has fuzzRaw, because a mutated exponent
// otherwise spreads the vertices over hundreds of magnitudes and every
// execution crawls through exact arithmetic. fuzzLattice puts vertices on
// grid corners and edges along grid lines. Nothing is validated:
// internal/wire does validate, but the grid must be exact — or refuse — on
// anything Prepare accepts.
func fuzzPolygon(data []byte, holeAt, mode uint8) Polygon {
	coord := func(u uint64) float64 {
		switch {
		case mode&fuzzLattice != 0:
			return float64(u%65) / 64
		case mode&fuzzRaw != 0:
			return math.Float64frombits(u)
		}
		const expMask = 0x7ff << 52
		return math.Float64frombits(u&^expMask | (1023-8+u>>52&15)<<52)
	}
	var ring Ring
	for ; len(data) >= 16 && len(ring) < 24; data = data[16:] {
		p := Pt(coord(binary.LittleEndian.Uint64(data)), coord(binary.LittleEndian.Uint64(data[8:])))
		if mode&fuzzGiga != 0 {
			p = p.Scale(1e9)
		}
		if mode&fuzzNano != 0 {
			p = p.Scale(1e-9)
		}
		ring = append(ring, p)
	}
	if h := int(holeAt); h >= 3 && len(ring)-h >= 3 {
		return Polygon{Outer: ring[:h], Holes: []Ring{ring[h:]}}
	}
	return Polygon{Outer: ring}
}

func fuzzBytes(pts ...Point) []byte {
	var out []byte
	for _, p := range pts {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.X))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.Y))
	}
	return out
}

// FuzzPreparedContainsMatchesPolygon is the differential target of the
// table above: whatever polygon the bytes spell, the prepared form answers
// containment as the plain polygon does, before and after its grid exists,
// on the grid-breaking probes and on the fuzzer's own point — taken as
// given and as a position relative to the MBR.
func FuzzPreparedContainsMatchesPolygon(f *testing.F) {
	star := randomStarPolygon(rand.New(rand.NewSource(5)), 10)
	square := []Point{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)}
	holedSquare := append(square, Pt(0.25, 0.25), Pt(0.5, 0.25), Pt(0.5, 0.5), Pt(0.25, 0.5))
	for _, mode := range []uint8{0, fuzzRaw, fuzzRaw | fuzzGiga, fuzzRaw | fuzzNano} {
		f.Add(fuzzBytes(star.Outer...), uint8(0), mode, 0.5, 0.5)
		f.Add(fuzzBytes(holedSquare...), uint8(4), mode, 0.375, 0.375)
	}
	f.Add(fuzzBytes(square...), uint8(0), uint8(fuzzRaw), 0.03125, 0.96875)
	f.Add(fuzzBytes(lShape().Outer...), uint8(0), uint8(fuzzRaw), 1.0, 1.0)
	f.Add(fuzzBytes(Pt(0, 0), Pt(1, 1e-9), Pt(1, 2e-9)), uint8(0), uint8(fuzzRaw), 0.5, 0.75)
	f.Add(fuzzBytes(Pt(0, 0), Pt(1, 1), Pt(1, 0), Pt(0, 1)), uint8(0), uint8(fuzzRaw), 0.5, 0.5)
	f.Add(fuzzBytes(Pt(1, 1), Pt(2, 1), Pt(2, math.Nextafter(1, 2))), uint8(0), uint8(fuzzRaw), 0.5, 0.5)
	f.Add(fuzzBytes(Pt(0, 0), Pt(1, 0), Pt(math.NaN(), 1), Pt(0, 1)), uint8(0), uint8(fuzzRaw), math.NaN(), 0.5)
	f.Add(fuzzBytes(Pt(0, 0), Pt(1, 0), Pt(math.Inf(1), 1), Pt(0, 1)), uint8(0), uint8(fuzzRaw), math.Inf(-1), 0.5)
	// Found by this target's first run: finite vertices whose cross products
	// overflow gave InteriorPoint a non-finite centroid, and Prepare panicked
	// in the exact orientation predicate (see ContainsPointStrict).
	f.Add(fuzzBytes(Pt(0, 0), Pt(1e110, 0), Pt(1e110, 1e110), Pt(0, 1e110)), uint8(0), uint8(fuzzRaw), 0.5, 0.5)
	// On the lattice a coordinate is its bit pattern mod 65, over 64.
	lattice := func(ks ...uint64) []byte {
		var out []byte
		for _, k := range ks {
			out = binary.LittleEndian.AppendUint64(out, k)
		}
		return out
	}
	f.Add(lattice(7, 9, 40, 9, 40, 33, 23, 33, 23, 50, 7, 50), uint8(0), uint8(fuzzLattice), 0.5, 0.5)
	f.Add(lattice(0, 0, 64, 0, 64, 64, 0, 64, 16, 16, 48, 16, 48, 48, 16, 48), uint8(4), uint8(fuzzLattice|fuzzGiga), 0.25, 0.25)
	f.Fuzz(func(t *testing.T, data []byte, holeAt, mode uint8, px, py float64) {
		pg := fuzzPolygon(data, holeAt, mode)
		// Thinned to keep executions per second up; the table test above
		// runs the full lattice.
		stride := 2
		if mode&fuzzRaw != 0 {
			stride = 8 // see checkPreparedMatchesPolygon
		}
		b := pg.Bounds()
		frac := func(v float64) float64 { return v - math.Floor(v) }
		checkPreparedMatchesPolygon(t, pg, stride, Pt(px, py),
			Pt(b.MinX+(b.MaxX-b.MinX)*frac(px), b.MinY+(b.MaxY-b.MinY)*frac(py)))
	})
}
