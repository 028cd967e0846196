// Package workload generates the synthetic datasets and query areas used by
// the paper's evaluation: uniform (and, as an extension, clustered) point
// sets in a rectangular universe, and random simple polygons of k vertices
// scaled so the polygon's MBR covers a chosen fraction of the universe —
// the paper's "query size" knob.
//
// This is the root module's only generator package: vaq.go wraps its
// generators (UniformPoints, ClusteredPoints, RandomQueryPolygon,
// RectangleQueryPolygon), and the internal tests and cmd/areabench's sweeps
// import it. The nested benchmark module keeps its own frozen copy in
// benchmark/inputs.go so that a change here cannot move the referee's
// inputs; the two are not meant to be kept in step.
package workload

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/geom"
	"repro/internal/hilbert"
)

// HilbertSort reorders pts in place along a Hilbert curve over bounds.
// Spatially clustering the dataset this way mirrors how a production
// spatial store lays out records (neighboring points share pages and cache
// lines), which benefits both area-query methods and especially the
// Voronoi BFS, whose access pattern is spatially local.
func HilbertSort(pts []geom.Point, bounds geom.Rect) {
	sc := hilbert.NewScaler(bounds.MinX, bounds.MinY, bounds.MaxX, bounds.MaxY, hilbert.Order)
	keys := make([]uint64, len(pts))
	for i, p := range pts {
		keys[i] = sc.D(p.X, p.Y)
	}
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([]geom.Point, len(pts))
	for i, j := range idx {
		out[i] = pts[j]
	}
	copy(pts, out)
}

// UniformPoints returns n points uniformly distributed in bounds.
func UniformPoints(rng *rand.Rand, n int, bounds geom.Rect) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(
			bounds.MinX+rng.Float64()*bounds.Width(),
			bounds.MinY+rng.Float64()*bounds.Height(),
		)
	}
	return pts
}

// ClusteredPoints returns n points drawn from a mixture of `clusters`
// Gaussian blobs with standard deviation sigma (in units of the shorter
// bounds side), rejected into bounds. It models skewed real-world data
// (cities, POIs).
func ClusteredPoints(rng *rand.Rand, n, clusters int, sigma float64, bounds geom.Rect) []geom.Point {
	if clusters < 1 {
		clusters = 1
	}
	centers := UniformPoints(rng, clusters, bounds)
	s := sigma * math.Min(bounds.Width(), bounds.Height())
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		c := centers[rng.Intn(clusters)]
		p := geom.Pt(c.X+rng.NormFloat64()*s, c.Y+rng.NormFloat64()*s)
		if bounds.ContainsPoint(p) {
			pts = append(pts, p)
		}
	}
	return pts
}

// PolygonConfig controls RandomPolygon.
type PolygonConfig struct {
	// Vertices is the vertex count; the paper uses 10.
	Vertices int
	// QuerySize is area(MBR(polygon)) / area(bounds), the paper's query
	// size. Must be in (0, 1].
	QuerySize float64
	// MinRadiusRatio is the inner-to-outer radius ratio of the star
	// construction, in (0, 1]; lower values produce spikier (more
	// irregular, more concave) polygons. Default 0.25 when zero.
	MinRadiusRatio float64
}

// RandomPolygon generates a random simple polygon inside bounds whose MBR
// area is QuerySize × area(bounds).
//
// Construction: k rays at sorted random angles from a center, each with a
// random radius — a star-shaped and therefore simple polygon, concave with
// high probability, matching the paper's "randomly generated polygon of
// ten points". The polygon is then scaled to hit the target MBR area
// exactly and placed uniformly at random so its MBR lies inside bounds. A
// star whose scaled MBR does not fit in bounds is drawn again, and the
// maxMisfits-th such star is stretched along one axis to fit instead, so
// every query size in (0, 1] returns, 1 included.
func RandomPolygon(rng *rand.Rand, cfg PolygonConfig, bounds geom.Rect) geom.Polygon {
	k := cfg.Vertices
	if k < 3 {
		k = 10
	}
	minR := cfg.MinRadiusRatio
	if minR <= 0 || minR > 1 {
		minR = 0.25
	}
	qs := cfg.QuerySize
	if qs <= 0 || qs > 1 {
		qs = 0.01
	}

	for misfits := 0; ; {
		// Distinct sorted angles.
		angles := make([]float64, k)
		for i := range angles {
			angles[i] = rng.Float64() * 2 * math.Pi
		}
		sortFloat64s(angles)
		distinct := true
		for i := 1; i < k; i++ {
			if angles[i]-angles[i-1] < 1e-6 {
				distinct = false
				break
			}
		}
		if !distinct {
			continue
		}
		pts := make([]geom.Point, k)
		for i, a := range angles {
			r := minR + (1-minR)*rng.Float64()
			pts[i] = geom.Pt(r*math.Cos(a), r*math.Sin(a))
		}
		pg, err := geom.NewPolygon(pts)
		if err != nil {
			continue // degenerate sample; retry
		}

		// Scale the MBR to the target area.
		mbr := pg.Bounds()
		target := qs * bounds.Area()
		if mbr.Area() <= 0 || target <= 0 {
			continue
		}
		s := math.Sqrt(target / mbr.Area())
		sx, sy := s, s
		w, h := mbr.Width()*s, mbr.Height()*s
		stretched := w > bounds.Width() || h > bounds.Height()
		if stretched {
			// Aspect ratio too extreme to place at this query size: retry,
			// and once retrying has failed maxMisfits times (at a query size
			// near 1 it almost always does) stretch the star instead. The
			// overflowing axis takes the full extent of bounds and the other
			// the rest of the target area; an affine map keeps the star simple.
			if misfits++; misfits < maxMisfits {
				continue
			}
			if w > bounds.Width() {
				w, h = bounds.Width(), target/bounds.Width()
			} else {
				w, h = target/bounds.Height(), bounds.Height()
			}
			sx, sy = w/mbr.Width(), h/mbr.Height()
		}
		// Place the scaled MBR uniformly inside bounds.
		ox := bounds.MinX + rng.Float64()*(bounds.Width()-w)
		oy := bounds.MinY + rng.Float64()*(bounds.Height()-h)
		ring := make([]geom.Point, k)
		for i, p := range pts {
			ring[i] = geom.Pt(ox+(p.X-mbr.MinX)*sx, oy+(p.Y-mbr.MinY)*sy)
			if stretched {
				// A stretched star spans bounds on one axis, where rounding
				// may land a vertex an ulp outside.
				ring[i].X = min(max(ring[i].X, bounds.MinX), bounds.MaxX)
				ring[i].Y = min(max(ring[i].Y, bounds.MinY), bounds.MaxY)
			}
		}
		out, err := geom.NewPolygon(ring)
		if err != nil {
			continue
		}
		return out
	}
}

// RectanglePolygon returns an axis-aligned rectangular query polygon with
// the given aspect ratio (width/height) whose area — which for a rectangle
// equals its MBR area — is querySize × area(bounds), placed uniformly at
// random. The paper's introduction observes that the traditional method is
// nearly optimal for rectangular queries; this generator provides that
// best case for ablations.
func RectanglePolygon(rng *rand.Rand, querySize, aspect float64, bounds geom.Rect) geom.Polygon {
	if querySize <= 0 || querySize > 1 {
		querySize = 0.01
	}
	if aspect <= 0 {
		aspect = 1
	}
	target := querySize * bounds.Area()
	h := math.Sqrt(target / aspect)
	w := aspect * h
	if w > bounds.Width() {
		w = bounds.Width()
		h = target / w
	}
	if h > bounds.Height() {
		h = bounds.Height()
		w = target / h
	}
	ox := bounds.MinX + rng.Float64()*(bounds.Width()-w)
	oy := bounds.MinY + rng.Float64()*(bounds.Height()-h)
	return geom.MustPolygon([]geom.Point{
		geom.Pt(ox, oy), geom.Pt(ox+w, oy), geom.Pt(ox+w, oy+h), geom.Pt(ox, oy+h),
	})
}

// maxMisfits is how many stars of too extreme an aspect ratio RandomPolygon
// draws before it stretches one to fit. At query sizes up to 0.32 a misfit
// is rare enough that no call reaches it, so those polygons are the ones
// isotropic scaling alone returned (TestRandomPolygonOutputsPinned).
const maxMisfits = 64

// sortFloat64s is insertion sort; k is tiny (10 by default).
func sortFloat64s(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
