package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func unitBounds() geom.Rect { return geom.NewRect(0, 0, 1, 1) }

func TestUniformPointsInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := geom.NewRect(-2, 3, 5, 7)
	pts := UniformPoints(rng, 5000, b)
	if len(pts) != 5000 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if !b.ContainsPoint(p) {
			t.Fatalf("point %v outside bounds", p)
		}
	}
	// Rough uniformity: each quadrant holds ~25%.
	c := b.Center()
	quads := [4]int{}
	for _, p := range pts {
		q := 0
		if p.X > c.X {
			q |= 1
		}
		if p.Y > c.Y {
			q |= 2
		}
		quads[q]++
	}
	for i, n := range quads {
		if n < 1000 || n > 1500 {
			t.Errorf("quadrant %d has %d of 5000 points", i, n)
		}
	}
}

func TestClusteredPointsInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := ClusteredPoints(rng, 2000, 5, 0.02, unitBounds())
	if len(pts) != 2000 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if !unitBounds().ContainsPoint(p) {
			t.Fatalf("point %v outside bounds", p)
		}
	}
	// Clustered data should be far less uniform than uniform data: measure
	// occupancy of a 10x10 grid — many cells should be (near) empty.
	empty := 0
	var cells [100]int
	for _, p := range pts {
		ix := int(p.X * 10)
		iy := int(p.Y * 10)
		if ix > 9 {
			ix = 9
		}
		if iy > 9 {
			iy = 9
		}
		cells[iy*10+ix]++
	}
	for _, n := range cells {
		if n == 0 {
			empty++
		}
	}
	if empty < 20 {
		t.Errorf("clustered data occupies almost every cell (%d empty), looks uniform", empty)
	}
}

func TestClusteredDegenerateArgs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := ClusteredPoints(rng, 10, 0, 0.1, unitBounds()) // clusters < 1
	if len(pts) != 10 {
		t.Errorf("got %d points", len(pts))
	}
}

func TestRandomPolygonQuerySize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, qs := range []float64{0.01, 0.02, 0.04, 0.08, 0.16, 0.32} {
		for trial := 0; trial < 50; trial++ {
			pg := RandomPolygon(rng, PolygonConfig{Vertices: 10, QuerySize: qs}, unitBounds())
			mbr := pg.Bounds()
			if math.Abs(mbr.Area()-qs) > qs*1e-6 {
				t.Fatalf("qs=%v: MBR area = %v", qs, mbr.Area())
			}
			if !unitBounds().ContainsRect(mbr) {
				t.Fatalf("qs=%v: MBR %v escapes bounds", qs, mbr)
			}
			if len(pg.Outer) != 10 {
				t.Fatalf("vertices = %d, want 10", len(pg.Outer))
			}
			if !pg.Outer.IsSimple() {
				t.Fatalf("polygon not simple: %v", pg.Outer)
			}
		}
	}
}

func TestRandomPolygonDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pg := RandomPolygon(rng, PolygonConfig{}, unitBounds())
	if len(pg.Outer) != 10 {
		t.Errorf("default vertices = %d, want 10", len(pg.Outer))
	}
	if math.Abs(pg.Bounds().Area()-0.01) > 1e-8 {
		t.Errorf("default query size MBR area = %v, want 0.01", pg.Bounds().Area())
	}
}

func TestRandomPolygonIsOftenConcave(t *testing.T) {
	// The paper stresses irregular/concave query areas; the generator
	// should produce them with high probability at the default spikiness.
	rng := rand.New(rand.NewSource(6))
	concave := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		pg := RandomPolygon(rng, PolygonConfig{Vertices: 10, QuerySize: 0.01}, unitBounds())
		if !pg.Outer.IsConvex() {
			concave++
		}
	}
	if concave < trials*3/4 {
		t.Errorf("only %d/%d polygons concave", concave, trials)
	}
}

func TestRandomPolygonAreaSmallerThanMBR(t *testing.T) {
	// The premise of the paper: irregular polygons occupy a fraction of
	// their MBR. Check the generated average is comfortably below 1.
	rng := rand.New(rand.NewSource(7))
	var ratioSum float64
	const trials = 200
	for i := 0; i < trials; i++ {
		pg := RandomPolygon(rng, PolygonConfig{Vertices: 10, QuerySize: 0.04}, unitBounds())
		ratioSum += pg.Area() / pg.Bounds().Area()
	}
	avg := ratioSum / trials
	if avg > 0.8 {
		t.Errorf("polygons nearly fill their MBRs (avg ratio %.2f); not irregular enough", avg)
	}
	if avg < 0.1 {
		t.Errorf("polygons degenerate (avg ratio %.2f)", avg)
	}
}

// TestRandomPolygonOutputsPinned holds the generator's polygons at the query
// sizes every caller uses to a digest recorded before the anisotropic
// fallback existed: the fallback may only answer what used to spin, never
// change a polygon that used to come back.
func TestRandomPolygonOutputsPinned(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, qs := range []float64{1e-4, 1e-3, 0.01, 0.04, 0.16, 0.32} {
			for _, k := range []int{3, 10, 25} {
				for i := 0; i < 20; i++ {
					pg := RandomPolygon(rng, PolygonConfig{Vertices: k, QuerySize: qs}, geom.NewRect(-2, 3, 5, 7))
					for _, p := range pg.Outer {
						binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.X))
						h.Write(buf[:])
						binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.Y))
						h.Write(buf[:])
					}
				}
			}
		}
	}
	const want = "de9808c50639b7207626337de5176a0104c657c0b75c20585dea0f0278388578"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("generator outputs digest %s, recorded %s", got, want)
	}
}

// TestRandomPolygonWholeUniverse: at QuerySize 1 the MBR must be the bounds
// themselves, which an isotropically scaled star fits only when its aspect
// ratio is the universe's exactly; the generator used to resample forever.
func TestRandomPolygonWholeUniverse(t *testing.T) {
	for _, b := range []geom.Rect{unitBounds(), geom.NewRect(-2, 3, 5, 7), geom.NewRect(0, 0, 1e-3, 40)} {
		rng := rand.New(rand.NewSource(8))
		for _, qs := range []float64{1, 0.97, 0.9} {
			for trial := 0; trial < 20; trial++ {
				pg := RandomPolygon(rng, PolygonConfig{Vertices: 10, QuerySize: qs}, b)
				mbr := pg.Bounds()
				if !b.ContainsRect(mbr) {
					t.Fatalf("bounds %v, qs=%v: MBR %v escapes them", b, qs, mbr)
				}
				if want := qs * b.Area(); math.Abs(mbr.Area()-want) > want*1e-9 {
					t.Fatalf("bounds %v, qs=%v: MBR area %v, want %v", b, qs, mbr.Area(), want)
				}
				if len(pg.Outer) != 10 || !pg.Outer.IsSimple() {
					t.Fatalf("bounds %v, qs=%v: %d vertices, simple %v", b, qs, len(pg.Outer), pg.Outer.IsSimple())
				}
			}
		}
	}
}

func TestRandomPolygonDeterministicPerSeed(t *testing.T) {
	a := RandomPolygon(rand.New(rand.NewSource(42)), PolygonConfig{Vertices: 8, QuerySize: 0.05}, unitBounds())
	b := RandomPolygon(rand.New(rand.NewSource(42)), PolygonConfig{Vertices: 8, QuerySize: 0.05}, unitBounds())
	if len(a.Outer) != len(b.Outer) {
		t.Fatal("same seed, different polygons")
	}
	for i := range a.Outer {
		if a.Outer[i] != b.Outer[i] {
			t.Fatal("same seed, different polygons")
		}
	}
}
