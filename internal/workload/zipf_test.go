package workload

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestZipfPickerDeterministic(t *testing.T) {
	a := ZipfPicker(rand.New(rand.NewSource(7)), 1.1, 64)
	b := ZipfPicker(rand.New(rand.NewSource(7)), 1.1, 64)
	for i := 0; i < 1000; i++ {
		if av, bv := a(), b(); av != bv {
			t.Fatalf("draw %d: %d != %d with identical seeds", i, av, bv)
		}
	}
}

func TestZipfPickerSkew(t *testing.T) {
	const n, draws = 64, 20000
	pick := ZipfPicker(rand.New(rand.NewSource(11)), 1.2, n)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		idx := pick()
		if idx < 0 || idx >= n {
			t.Fatalf("index %d out of [0,%d)", idx, n)
		}
		counts[idx]++
	}
	// Rank 0 must dominate, and the head must carry most of the traffic.
	if counts[0] <= counts[n-1] {
		t.Fatalf("rank 0 drawn %d times, rank %d drawn %d — no skew", counts[0], n-1, counts[n-1])
	}
	head := 0
	for _, c := range counts[:8] {
		head += c
	}
	if frac := float64(head) / draws; frac < 0.5 {
		t.Fatalf("top-8 regions carry only %.0f%% of traffic, want skewed majority", frac*100)
	}
}

func TestZipfPickerClampsLowSkew(t *testing.T) {
	// s <= 1 is outside rand.Zipf's domain; the picker must still work.
	pick := ZipfPicker(rand.New(rand.NewSource(3)), 0.5, 8)
	for i := 0; i < 100; i++ {
		if idx := pick(); idx < 0 || idx >= 8 {
			t.Fatalf("index %d out of range", idx)
		}
	}
}

func TestHotRegionPool(t *testing.T) {
	bounds := geom.NewRect(0, 0, 1, 1)
	cfg := HotRegionConfig{Regions: 32, Clusters: 3, QuerySize: 0.01}
	pool := HotRegionPool(rand.New(rand.NewSource(5)), cfg, bounds)
	if len(pool) != 32 {
		t.Fatalf("pool size %d, want 32", len(pool))
	}
	for i, pg := range pool {
		mbr := pg.Bounds()
		if !bounds.ContainsRect(mbr) { // exactly: engines refuse a region an ulp outside
			t.Fatalf("region %d MBR %+v escapes bounds", i, mbr)
		}
		// Translation preserves the generator's exact query-size scaling.
		if got := mbr.Area() / bounds.Area(); math.Abs(got-0.01) > 1e-9 {
			t.Fatalf("region %d query size %.5f, want 0.01", i, got)
		}
	}
	// Wide clusters push many centers against the border, where the clamp
	// and the translation's rounding meet.
	wide := HotRegionConfig{Regions: 2000, Clusters: 4, ClusterSigma: 0.5, QuerySize: 0.01}
	for i, pg := range HotRegionPool(rand.New(rand.NewSource(6)), wide, bounds) {
		if mbr := pg.Bounds(); !bounds.ContainsRect(mbr) {
			t.Fatalf("border region %d MBR %+v escapes bounds", i, mbr)
		}
	}
	// Determinism per seed.
	again := HotRegionPool(rand.New(rand.NewSource(5)), cfg, bounds)
	for i := range pool {
		if len(pool[i].Outer) != len(again[i].Outer) || pool[i].Outer[0] != again[i].Outer[0] {
			t.Fatalf("region %d differs across identically seeded runs", i)
		}
	}
}

func TestHotRegionPoolClustering(t *testing.T) {
	// With tight sigma the pool centers must form clusters: the mean
	// distance to the nearest other region center should be far below the
	// uniform-expectation for the same count.
	bounds := geom.NewRect(0, 0, 1, 1)
	pool := HotRegionPool(rand.New(rand.NewSource(9)), HotRegionConfig{
		Regions: 48, Clusters: 3, ClusterSigma: 0.02, QuerySize: 0.005,
	}, bounds)
	centers := make([]geom.Point, len(pool))
	for i, pg := range pool {
		m := pg.Bounds()
		centers[i] = geom.Pt((m.MinX+m.MaxX)/2, (m.MinY+m.MaxY)/2)
	}
	sum := 0.0
	for i, c := range centers {
		best := math.Inf(1)
		for j, o := range centers {
			if i == j {
				continue
			}
			if d := math.Hypot(c.X-o.X, c.Y-o.Y); d < best {
				best = d
			}
		}
		sum += best
	}
	mean := sum / float64(len(centers))
	// Uniform nearest-neighbor distance for 48 points in a unit square is
	// ~0.5/sqrt(48) ≈ 0.072; clustered pools sit well under half of that.
	if mean > 0.036 {
		t.Fatalf("mean nearest-center distance %.4f — pool does not cluster", mean)
	}
}
