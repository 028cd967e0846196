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
// method, that no edge touches a cell the grid calls inside or outside, and
// that every edge is in the list of each cell it touches and each row it
// spans. It returns whether a grid was built.
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
	if !finitePolygon(pg) {
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
	before, after := preparedPair(t, pg)
	g := after.grid.Load()

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
	listed := func(list []uint16, edge int) bool {
		for _, e := range list {
			if int(e) == edge {
				return true
			}
		}
		return false
	}
	for iy := 0; iy < gridSize; iy++ {
		for i, e := range after.edges {
			if g.lists != nil && e.bb.MinY <= g.ys[iy+1] && e.bb.MaxY >= g.ys[iy] && !listed(g.rowEdges(iy), i) {
				t.Fatalf("row %d does not list edge %v-%v, which spans it\n%v", iy, e.a, e.b, pg)
			}
		}
		for ix := iy % stride; ix < gridSize; ix += stride {
			class := g.class[iy*gridSize+ix]
			if class == cellBoundary && g.lists == nil {
				continue
			}
			cell := Rect{g.xs[ix], g.ys[iy], g.xs[ix+1], g.ys[iy+1]}
			for i, e := range after.edges {
				if !fourEdges(Seg(e.a, e.b), cell) {
					continue
				}
				if class != cellBoundary {
					t.Fatalf("cell (%d,%d) %v is class %d but edge %v-%v touches it\n%v",
						ix, iy, cell, class, e.a, e.b, pg)
				}
				if k := g.cell(ix, iy); !listed(g.lists[g.lists[k]:g.lists[k+1]], i) {
					t.Fatalf("cell (%d,%d) %v does not list edge %v-%v, which touches it\n%v",
						ix, iy, cell, e.a, e.b, pg)
				}
			}
		}
	}
	return true
}

// preparedPair prepares pg twice: pinned to the edge loops, the state every
// region starts in, and driven past gridAfter through the public method.
func preparedPair(t *testing.T, pg Polygon) (before, after *PreparedPolygon) {
	t.Helper()
	before = Prepare(pg)
	before.exactTests.Store(gridAfter) // never builds
	after = Prepare(pg)
	if len(pg.Outer) > 0 {
		for i := 0; i < gridAfter; i++ {
			after.ContainsPoint(pg.Outer[0])
		}
	}
	if after.grid.Load() == nil && after.exactTests.Load() == gridAfter && newContainGrid(after) != nil {
		t.Fatal("the gridAfter-th test did not publish the grid")
	}
	return before, after
}

// finitePolygon reports whether every vertex of pg is finite. A polygon
// with a NaN or ±Inf vertex never answers a query: the exact orientation
// predicate panics on it, in Prepare's anchor search and in the plain
// polygon alike.
func finitePolygon(pg Polygon) bool {
	finite := true
	pg.rings(func(r Ring) bool {
		for _, v := range r {
			finite = finite && v.X-v.X == 0 && v.Y-v.Y == 0
		}
		return true
	})
	return finite
}

// answer runs a predicate and reports what it said, or that it panicked —
// which the exact orientation predicate does on a non-finite coordinate.
func answer(f func() bool) (got, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return f(), false
}

// touchesBoundaryPlain is TouchesBoundary by definition: MBR reject, then
// every edge of every ring against s.
func touchesBoundaryPlain(pg Polygon, s Segment) bool {
	if !pg.Bounds().Intersects(s.Bounds()) {
		return false
	}
	hit := false
	pg.rings(func(r Ring) bool {
		for i := range r {
			hit = hit || s.Intersects(Seg(r[i], r[(i+1)%len(r)]))
		}
		return !hit
	})
	return hit
}

// exactRange reports whether every coordinate is zero or of a magnitude in
// [2⁻⁴⁰⁰, 2⁴⁰⁰], where no product of two coordinate differences underflows
// or overflows and robust.Orient2D is exact. Outside it (an ulp from zero
// is 5e-324) its filter can misjudge a sign, and two tests that are equal
// by a geometric argument, not by making the same calls, may disagree.
func exactRange(pts ...Point) bool {
	for _, p := range pts {
		for _, v := range [2]float64{math.Abs(p.X), math.Abs(p.Y)} {
			if v != 0 && !(v >= 0x1p-400 && v <= 0x1p400) {
				return false
			}
		}
	}
	return true
}

// checkShapesMatchPolygon holds the prepared segment and ring tests to the
// plain polygon's answers on the shapes q spans — the segment q[0]-q[1] and
// the ring of all of q — before and after the grid exists. Where the orientation predicate is not exact
// (see exactRange; on a non-finite coordinate it panics) the check is that
// the grid changes nothing: the same answer or the same panic as the edge
// loops.
func checkShapesMatchPolygon(t *testing.T, pg Polygon, before, after *PreparedPolygon, q ...Point) {
	t.Helper()
	exact := exactRange(q...)
	pg.rings(func(r Ring) bool {
		exact = exact && exactRange(r...)
		return exact
	})
	s, ring := Seg(q[0], q[1]), Ring(q)
	for _, c := range []struct {
		name                string
		plain, loop, listed func() bool
	}{
		{"TouchesBoundary",
			func() bool { return touchesBoundaryPlain(pg, s) },
			func() bool { return before.TouchesBoundary(s) },
			func() bool { return after.TouchesBoundary(s) }},
		{"IntersectsSegment",
			func() bool { return pg.IntersectsSegment(s) },
			func() bool { return before.IntersectsSegment(s) },
			func() bool { return after.IntersectsSegment(s) }},
		{"IntersectsRingView",
			func() bool { return pg.IntersectsRing(ring) },
			func() bool { return before.IntersectsRingView(ViewRing(ring)) },
			func() bool { return after.IntersectsRingView(ViewRing(ring)) }},
	} {
		loop, loopPanicked := answer(c.loop)
		listed, listedPanicked := answer(c.listed)
		if loop != listed || loopPanicked != listedPanicked {
			t.Fatalf("%s(%v): edge loop %v (panicked %v), grid %v (panicked %v)\n%v",
				c.name, q, loop, loopPanicked, listed, listedPanicked, pg)
		}
		if !exact {
			continue
		}
		if want := c.plain(); loopPanicked || loop != want {
			t.Fatalf("%s(%v) = %v (panicked %v), plain polygon %v\n%v", c.name, q, loop, loopPanicked, want, pg)
		}
	}
	if before.grid.Load() != nil {
		t.Fatal("a region past gridAfter built a grid after all")
	}
}

// checkShapesOnGridBreakers runs checkShapesMatchPolygon over shapes hung
// on breakerProbes: from each probe to a partner up to two cells away (the
// boxes the grid answers), from every thirty-second to itself (a point on
// a border, a vertex or an edge; a zero-length segment sends every
// orientation test to exact arithmetic, microseconds a call) and from every
// sixteenth to any other probe, far outside the MBR included (the boxes
// left to the edge loop).
func checkShapesOnGridBreakers(t *testing.T, pg Polygon, stride int) {
	t.Helper()
	if !finitePolygon(pg) {
		return
	}
	before, after := preparedPair(t, pg)
	probes := breakerProbes(pg, after.grid.Load(), stride)
	rng := rand.New(rand.NewSource(2))
	b := pg.Bounds()
	cw, ch := (b.MaxX-b.MinX)/gridSize, (b.MaxY-b.MinY)/gridSize
	nearby := func(p Point) Point {
		return Pt(p.X+(rng.Float64()-0.5)*4*cw, p.Y+(rng.Float64()-0.5)*4*ch)
	}
	for i, p := range probes {
		checkShapesMatchPolygon(t, pg, before, after, p, nearby(p), nearby(p))
		switch i % 32 {
		case 0:
			checkShapesMatchPolygon(t, pg, before, after, p, p, nearby(p))
		case 8, 24:
			checkShapesMatchPolygon(t, pg, before, after, p, probes[rng.Intn(len(probes))], probes[rng.Intn(len(probes))])
		}
	}
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
			checkShapesOnGridBreakers(t, c.pg, 2)
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

// lattice spells coordinates for fuzzLattice mode, where a coordinate is
// its bit pattern mod 65, over 64.
func lattice(ks ...uint64) []byte {
	var out []byte
	for _, k := range ks {
		out = binary.LittleEndian.AppendUint64(out, k)
	}
	return out
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
// given and as a position relative to the MBR. And CheckPolygon and
// Prepare's Err judge the literal as NewPolygon and AddHole do.
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
	f.Add(lattice(7, 9, 40, 9, 40, 33, 23, 33, 23, 50, 7, 50), uint8(0), uint8(fuzzLattice), 0.5, 0.5)
	f.Add(lattice(0, 0, 64, 0, 64, 64, 0, 64, 16, 16, 48, 16, 48, 48, 16, 48), uint8(4), uint8(fuzzLattice|fuzzGiga), 0.25, 0.25)
	f.Fuzz(func(t *testing.T, data []byte, holeAt, mode uint8, px, py float64) {
		pg := fuzzPolygon(data, holeAt, mode)
		// The literal's verdict is the constructors': the error building its
		// rings through NewPolygon and AddHole returns.
		built, want := NewPolygon(pg.Outer)
		for _, h := range pg.Holes {
			if want == nil {
				want = built.AddHole(h)
			}
		}
		if plain, prepared := CheckPolygon(pg), Prepare(pg).Err(); plain != want || prepared != want {
			t.Fatalf("CheckPolygon %v, Prepare's Err %v; NewPolygon and AddHole return %v\n%v", plain, prepared, want, pg)
		}
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

// FuzzPreparedShapesMatchPolygon is the segment and ring twin of the target
// above: whatever polygon the bytes spell, TouchesBoundary,
// IntersectsSegment and IntersectsRingView answer as the plain polygon does,
// on the edge loops and on the grid's lists, for the shapes three fuzzed
// points span (see checkShapesMatchPolygon) — taken as
// given, as positions relative to the MBR, and with the second and third
// within two cells of the first, the boxes the lists serve.
func FuzzPreparedShapesMatchPolygon(f *testing.F) {
	star := randomStarPolygon(rand.New(rand.NewSource(5)), 10)
	square := []Point{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)}
	holedSquare := append(square[:4:4], Pt(0.25, 0.25), Pt(0.5, 0.25), Pt(0.5, 0.5), Pt(0.25, 0.5))
	astray := append(square[:4:4], Pt(0.5, 0.5), Pt(3, 0.5), Pt(3, 4), Pt(-2, 4))
	nan, inf := math.NaN(), math.Inf(1)
	for _, mode := range []uint8{0, fuzzRaw, fuzzRaw | fuzzGiga, fuzzRaw | fuzzNano} {
		f.Add(fuzzBytes(star.Outer...), uint8(0), mode, 0.5, 0.5, 0.52, 0.47, 0.45, 0.55)
		f.Add(fuzzBytes(holedSquare...), uint8(4), mode, 0.375, 0.375, 0.25, 0.5, 0.6, 0.4)
	}
	f.Add(fuzzBytes(square...), uint8(0), uint8(fuzzRaw), 0.03125, 1.0, 0.03125, 1.0, 0.0625, 0.96875)
	f.Add(fuzzBytes(lShape().Outer...), uint8(0), uint8(fuzzRaw), 1.0, 1.0, 1.0, 2.0, 2.0, 1.0)
	// Holes astray: a long segment meets one far outside the MBR, a short
	// one just beside it, over cells no edge is marked in.
	f.Add(fuzzBytes(astray...), uint8(4), uint8(fuzzRaw), 0.9, 0.9, 1.5, 2.0, 0.75, 0.25)
	f.Add(fuzzBytes(Pt(0, 0), Pt(1, 0.5), Pt(0, 1), Pt(1.03, 0.1), Pt(1.08, 0.1), Pt(1.08, 0.3)),
		uint8(3), uint8(fuzzRaw), 0.99, 0.2, 1.06, 0.2, 1.06, 0.21)
	// Non-finite queries: the cell index converts a float to uint.
	f.Add(fuzzBytes(star.Outer...), uint8(0), uint8(fuzzRaw), nan, 0.5, 0.5, 0.5, 0.4, 0.6)
	f.Add(fuzzBytes(star.Outer...), uint8(0), uint8(fuzzRaw), 0.5, 0.5, 0.5, nan, nan, nan)
	f.Add(fuzzBytes(star.Outer...), uint8(0), uint8(fuzzRaw), 0.5, 0.5, inf, 0.5, 0.4, -inf)
	f.Add(fuzzBytes(square...), uint8(0), uint8(fuzzRaw), -inf, -inf, inf, inf, 0.5, 0.5)
	f.Add(fuzzBytes(square...), uint8(0), uint8(fuzzRaw|fuzzGiga), 0.5, inf, 0.5, 0.25, nan, 0.5)
	f.Add(lattice(7, 9, 40, 9, 40, 33, 23, 33, 23, 50, 7, 50), uint8(0), uint8(fuzzLattice), 0.5, 0.5, 0.625, 0.5, 0.5, 0.515625)
	f.Add(lattice(0, 0, 64, 0, 64, 64, 0, 64, 16, 16, 48, 16, 48, 48, 16, 48), uint8(4), uint8(fuzzLattice|fuzzGiga), 0.25, 0.25, 0.25, 0.75, 0.75, 0.75)
	f.Fuzz(func(t *testing.T, data []byte, holeAt, mode uint8, x0, y0, x1, y1, x2, y2 float64) {
		pg := fuzzPolygon(data, holeAt, mode)
		if !finitePolygon(pg) {
			return // see checkPreparedMatchesPolygon
		}
		before, after := preparedPair(t, pg)
		b := pg.Bounds()
		w, h := b.MaxX-b.MinX, b.MaxY-b.MinY
		frac := func(v float64) float64 { return v - math.Floor(v) }
		inMBR := func(x, y float64) Point { return Pt(b.MinX+w*frac(x), b.MinY+h*frac(y)) }
		p := inMBR(x0, y0)
		by := func(x, y float64) Point {
			return Pt(p.X+(frac(x)-0.5)*4*w/gridSize, p.Y+(frac(y)-0.5)*4*h/gridSize)
		}
		checkShapesMatchPolygon(t, pg, before, after, Pt(x0, y0), Pt(x1, y1), Pt(x2, y2))
		checkShapesMatchPolygon(t, pg, before, after, p, inMBR(x1, y1), inMBR(x2, y2))
		checkShapesMatchPolygon(t, pg, before, after, p, by(x1, y1), by(x2, y2))
	})
}
