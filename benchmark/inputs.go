package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	vaq "repro"
)

// scale fixes the input sizes. The benchmark runs at fullScale only; the
// smaller scale exists so the harness tests finish in seconds.
type scale struct {
	points     int // |D|
	areaPool   int // polygons with MBR = 1 % of the universe
	smallPool  int // polygons with MBR = 0.01 %
	mixedPolys int // leading area polygons reused by the mixed pool
	mixedCircs int // equal-area circles interleaved into the mixed pool
	batch      int // regions per QueryAll on sharded-batch
	preload    int // points a dynamic engine starts with
	cycleReads int // queries after each insert on dynamic-mixed
	geomCalls  int // calls per geom micro-probe
}

var fullScale = scale{
	points: 200_000, areaPool: 512, smallPool: 2048,
	mixedPolys: 384, mixedCircs: 128, batch: 32,
	preload: 50_000, cycleReads: 64, geomCalls: 1_000_000,
}

const (
	areaQuerySize  = 0.01   // the paper's default query size
	smallQuerySize = 0.0001 // ≈10 results at 200k points
	polyVertices   = 10
	insertStream   = 8192 // insert points covered by inputs_digest
)

// shape is one query region together with the raw geometry the oracle
// needs: the benchmark tests containment on the polygon or circle itself,
// never through the prepared Region the engines see.
type shape struct {
	region vaq.Region
	poly   vaq.Polygon
	circle vaq.Circle
	round  bool // circle, not polygon
}

func (s *shape) bounds() vaq.Rect {
	if s.round {
		return s.circle.Bounds()
	}
	return s.poly.Bounds()
}

func (s *shape) contains(p vaq.Point) bool {
	if s.round {
		dx, dy := p.X-s.circle.Center.X, p.Y-s.circle.Center.Y
		return dx*dx+dy*dy <= s.circle.R*s.circle.R
	}
	return s.poly.ContainsPoint(p)
}

// inputs is everything a run feeds the system, all derived from the seed.
type inputs struct {
	seed    int64
	sc      scale
	bounds  vaq.Rect
	arrival []vaq.Point // generator order: what a dynamic engine receives
	data    []vaq.Point // D: arrival sorted by Morton key
	area    []shape
	small   []shape
	mixed   []shape
	inserts *rand.Rand // stream of points inserted on dynamic-mixed
	digest  string
}

// genInputs builds the dataset and the three pools. Each piece draws from
// its own generator so resizing one pool cannot shift another.
func genInputs(seed int64, sc scale) *inputs {
	in := &inputs{seed: seed, sc: sc, bounds: vaq.UnitSquare()}
	in.arrival = uniformPoints(newRand(seed), sc.points, in.bounds)
	in.data = mortonSorted(in.arrival, in.bounds)
	in.area = polygonPool(newRand(seed+1), sc.areaPool, areaQuerySize, in.bounds)
	in.small = polygonPool(newRand(seed+2), sc.smallPool, smallQuerySize, in.bounds)
	in.mixed = mixedPool(newRand(seed+3), in.area, sc, in.bounds)
	in.inserts = newRand(seed + 4)
	in.digest = in.computeDigest()
	return in
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// nextInsert returns the next point of the insert stream.
func (in *inputs) nextInsert() vaq.Point {
	x := in.bounds.MinX + in.inserts.Float64()*in.bounds.Width()
	y := in.bounds.MinY + in.inserts.Float64()*in.bounds.Height()
	return vaq.Pt(x, y)
}

// uniformPoints is internal/workload.UniformPoints as of the commit that
// introduced the benchmark, copied so edits there cannot move the inputs.
func uniformPoints(rng *rand.Rand, n int, bounds vaq.Rect) []vaq.Point {
	pts := make([]vaq.Point, n)
	for i := range pts {
		pts[i] = vaq.Pt(
			bounds.MinX+rng.Float64()*bounds.Width(),
			bounds.MinY+rng.Float64()*bounds.Height(),
		)
	}
	return pts
}

// starPolygon is internal/workload.RandomPolygon (MinRadiusRatio 0.25) as
// of the same commit: k rays at sorted random angles with random radii,
// scaled so the MBR covers querySize of bounds and placed uniformly.
func starPolygon(rng *rand.Rand, k int, querySize float64, bounds vaq.Rect) vaq.Polygon {
	const minR = 0.25
	for {
		angles := make([]float64, k)
		for i := range angles {
			angles[i] = rng.Float64() * 2 * math.Pi
		}
		sort.Float64s(angles)
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
		pts := make([]vaq.Point, k)
		for i, a := range angles {
			r := minR + (1-minR)*rng.Float64()
			pts[i] = vaq.Pt(r*math.Cos(a), r*math.Sin(a))
		}
		pg, err := vaq.NewPolygon(pts)
		if err != nil {
			continue
		}
		mbr := pg.Bounds()
		target := querySize * bounds.Area()
		if mbr.Area() <= 0 {
			continue
		}
		s := math.Sqrt(target / mbr.Area())
		w, h := mbr.Width()*s, mbr.Height()*s
		if w > bounds.Width() || h > bounds.Height() {
			continue
		}
		ox := bounds.MinX + rng.Float64()*(bounds.Width()-w)
		oy := bounds.MinY + rng.Float64()*(bounds.Height()-h)
		ring := make([]vaq.Point, k)
		for i, p := range pts {
			ring[i] = vaq.Pt(ox+(p.X-mbr.MinX)*s, oy+(p.Y-mbr.MinY)*s)
		}
		out, err := vaq.NewPolygon(ring)
		if err != nil {
			continue
		}
		return out
	}
}

func polygonPool(rng *rand.Rand, n int, querySize float64, bounds vaq.Rect) []shape {
	pool := make([]shape, n)
	for i := range pool {
		pg := starPolygon(rng, polyVertices, querySize, bounds)
		pool[i] = shape{region: vaq.PolygonRegion(pg), poly: pg}
	}
	return pool
}

// mixedPool is the first mixedPolys area polygons with one circle after
// every third polygon. Circle i has the area of area polygon mixedPolys+i,
// the polygon it stands in for, so the pool's result volume matches area's.
func mixedPool(rng *rand.Rand, area []shape, sc scale, bounds vaq.Rect) []shape {
	every := (sc.mixedPolys + sc.mixedCircs) / sc.mixedCircs
	pool := make([]shape, 0, sc.mixedPolys+sc.mixedCircs)
	nextPoly, nextCirc := 0, 0
	for len(pool) < cap(pool) {
		if len(pool)%every == every-1 && nextCirc < sc.mixedCircs {
			r := math.Sqrt(area[sc.mixedPolys+nextCirc].poly.Area() / math.Pi)
			c := vaq.NewCircle(vaq.Pt(
				bounds.MinX+r+rng.Float64()*(bounds.Width()-2*r),
				bounds.MinY+r+rng.Float64()*(bounds.Height()-2*r)), r)
			pool = append(pool, shape{region: vaq.CircleRegion(c), circle: c, round: true})
			nextCirc++
			continue
		}
		pool = append(pool, area[nextPoly])
		nextPoly++
	}
	return pool
}

// mortonSorted returns pts ordered by a 16-bit-per-axis Morton key, ties in
// arrival order: the page and chunk locality a deployed store would have.
func mortonSorted(pts []vaq.Point, bounds vaq.Rect) []vaq.Point {
	keys := make([]uint32, len(pts))
	for i, p := range pts {
		keys[i] = mortonKey(p, bounds)
	}
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([]vaq.Point, len(pts))
	for i, j := range idx {
		out[i] = pts[j]
	}
	return out
}

func mortonKey(p vaq.Point, bounds vaq.Rect) uint32 {
	quant := func(v, lo, span float64) uint32 {
		q := (v - lo) / span * 65536
		if q < 0 {
			return 0
		}
		if q > 65535 {
			return 65535
		}
		return uint32(q)
	}
	return spread16(quant(p.X, bounds.MinX, bounds.Width())) |
		spread16(quant(p.Y, bounds.MinY, bounds.Height()))<<1
}

// spread16 moves bit i of v to bit 2i.
func spread16(v uint32) uint32 {
	v = (v | v<<8) & 0x00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f
	v = (v | v<<2) & 0x33333333
	v = (v | v<<1) & 0x55555555
	return v
}

// computeDigest hashes every coordinate a run will hand to the system.
func (in *inputs) computeDigest() string {
	h := fnv.New64a()
	var b [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	pts := func(ps []vaq.Point) {
		for _, p := range ps {
			f(p.X)
			f(p.Y)
		}
	}
	pts(in.data)
	pts(in.arrival[:in.sc.preload])
	for _, pool := range [][]shape{in.area, in.small, in.mixed} {
		for i := range pool {
			if pool[i].round {
				f(pool[i].circle.Center.X)
				f(pool[i].circle.Center.Y)
				f(pool[i].circle.R)
			} else {
				pts(pool[i].poly.Outer)
			}
		}
	}
	pts(uniformPoints(newRand(in.seed+4), insertStream, in.bounds))
	return fmt.Sprintf("%016x", h.Sum64())
}

func regionsOf(pool []shape) []vaq.Region {
	out := make([]vaq.Region, len(pool))
	for i := range pool {
		out[i] = pool[i].region
	}
	return out
}
