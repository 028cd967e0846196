package workload

import (
	"math/rand"

	"repro/internal/geom"
)

// HotRegionConfig parameterizes HotRegionPool: a pool of query areas
// clustered around a few hot spots, modeling the skewed geography of real
// traffic (downtowns, event venues, transit hubs) where most queries hammer
// a small set of regions.
type HotRegionConfig struct {
	// Regions is the pool size — the number of distinct query areas traffic
	// draws from. Default 64 when <= 0.
	Regions int
	// Clusters is the number of hot spots the pool centers gather around.
	// Default 4 when <= 0.
	Clusters int
	// ClusterSigma is the standard deviation of a region center around its
	// hot spot, in units of the shorter bounds side. Default 0.05 when <= 0.
	ClusterSigma float64
	// Vertices is the polygon vertex count (the paper uses 10). Default 10
	// when < 3.
	Vertices int
	// QuerySize is area(MBR(polygon)) / area(bounds), the paper's query-size
	// knob. Default 0.01 when outside (0, 1].
	QuerySize float64
}

func (c HotRegionConfig) withDefaults() HotRegionConfig {
	if c.Regions <= 0 {
		c.Regions = 64
	}
	if c.Clusters <= 0 {
		c.Clusters = 4
	}
	if c.ClusterSigma <= 0 {
		c.ClusterSigma = 0.05
	}
	if c.Vertices < 3 {
		c.Vertices = 10
	}
	if c.QuerySize <= 0 || c.QuerySize > 1 {
		c.QuerySize = 0.01
	}
	return c
}

// HotRegionPool returns cfg.Regions random query polygons whose MBR centers
// gather around cfg.Clusters hot spots inside bounds. Pool order is hotness
// order by convention: pair it with ZipfPicker, whose index 0 is the most
// frequently drawn, to turn the pool into a skewed query stream. The pool
// is deterministic for a given rng seed.
func HotRegionPool(rng *rand.Rand, cfg HotRegionConfig, bounds geom.Rect) []geom.Polygon {
	cfg = cfg.withDefaults()
	spots := UniformPoints(rng, cfg.Clusters, bounds)
	sigma := cfg.ClusterSigma * min(bounds.Width(), bounds.Height())
	pool := make([]geom.Polygon, cfg.Regions)
	for i := range pool {
		pg := RandomPolygon(rng, PolygonConfig{
			Vertices:  cfg.Vertices,
			QuerySize: cfg.QuerySize,
		}, bounds)
		spot := spots[rng.Intn(cfg.Clusters)]
		cx := spot.X + rng.NormFloat64()*sigma
		cy := spot.Y + rng.NormFloat64()*sigma
		pool[i] = moveToCenter(pg, cx, cy, bounds)
	}
	return pool
}

// moveToCenter translates pg so its MBR center lands at (cx, cy), clamped
// so the MBR stays inside bounds — exactly: the vertices are clamped too,
// which absorbs the last-place error of the translation (engines refuse a
// region that pokes out of their universe by an ulp). Translation preserves
// simplicity and the MBR area, so the result is still a valid query polygon
// of the same query size.
func moveToCenter(pg geom.Polygon, cx, cy float64, bounds geom.Rect) geom.Polygon {
	mbr := pg.Bounds()
	w, h := mbr.Width(), mbr.Height()
	cx = clamp(cx, bounds.MinX+w/2, bounds.MaxX-w/2)
	cy = clamp(cy, bounds.MinY+h/2, bounds.MaxY-h/2)
	dx := cx - (mbr.MinX + w/2)
	dy := cy - (mbr.MinY + h/2)
	out := geom.Polygon{Outer: translateRing(pg.Outer, dx, dy, bounds)}
	for _, hole := range pg.Holes {
		out.Holes = append(out.Holes, translateRing(hole, dx, dy, bounds))
	}
	return out
}

func translateRing(r geom.Ring, dx, dy float64, bounds geom.Rect) geom.Ring {
	out := make(geom.Ring, len(r))
	for i, p := range r {
		out[i] = geom.Pt(clamp(p.X+dx, bounds.MinX, bounds.MaxX), clamp(p.Y+dy, bounds.MinY, bounds.MaxY))
	}
	return out
}

func clamp(v, lo, hi float64) float64 {
	if hi < lo {
		return (lo + hi) / 2
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ZipfPicker returns a deterministic generator of pool indexes in [0, n)
// following a zipfian rank distribution with skew s: index 0 is drawn most
// often, index 1 next, and so on — P(rank k) ∝ 1/(k+1)^s. Larger s
// concentrates traffic harder on the hottest regions (s ≈ 1 is the classic
// web-traffic regime). s values at or below 1 are clamped just above 1
// (rand.Zipf's domain). n must be >= 1.
func ZipfPicker(rng *rand.Rand, s float64, n int) func() int {
	if n < 1 {
		panic("workload: ZipfPicker needs n >= 1")
	}
	if s <= 1 {
		s = 1 + 1e-9
	}
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}
