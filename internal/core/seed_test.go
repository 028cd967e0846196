package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/workload"
)

// walkFrom runs the seed walk of eng toward p.
func walkFrom(eng *Engine, p geom.Point) (seed int64, steps int) {
	return eng.data.seedWalk(p)
}

// dynamicOver returns a dynamic engine holding pts, inserted in order.
func dynamicOver(t testing.TB, pts []geom.Point) *DynamicEngine {
	t.Helper()
	de := NewDynamicEngine(unitBounds())
	for _, p := range pts {
		if _, _, err := de.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	return de
}

// checkSeedWalk holds eng's seed walk toward p to the two other answers to
// "the site nearest p": the index's and a scan of sites, the points eng
// holds. Ids may differ where sites tie; the squared distance may not.
func checkSeedWalk(t *testing.T, name string, eng *Engine, sites []geom.Point, p geom.Point) {
	t.Helper()
	d := eng.data
	hint := d.hint.lookup(p)
	if hint < 0 || hint >= int64(len(d.pts)) {
		t.Fatalf("%s: hint toward %v is %d with %d ids", name, p, hint, len(d.pts))
	}
	seed, _ := walkFrom(eng, p)
	user := func(id int64) bool { return id >= int64(d.first) && id < int64(d.last) }
	if !user(hint) || !user(seed) {
		t.Fatalf("%s: toward %v the walk went from %d to %d, and one is a fence site", name, p, hint, seed)
	}
	want := math.Inf(1)
	for _, s := range sites {
		want = min(want, p.Dist2(s))
	}
	index := eng.idx // the walk's reference; Algorithm 1 itself no longer asks it
	nn, _, _ := index.Nearest(p)
	if got, byIndex := p.Dist2(d.pts[seed]), p.Dist2(d.pts[nn]); got != want || byIndex != want {
		t.Fatalf("%s: nearest to %v of %v: walk %d at dist2 %g, index %d at %g, scan %g",
			name, p, sites, seed, got, nn, byIndex, want)
	}
}

// Site-set and query-point shapes of FuzzSeedWalk's decoder.
const (
	sitesFree      = iota // as decoded: an 1/256 lattice, so collinear and cocircular subsets are common
	sitesCollinear        // every site on one diagonal
	sitesLattice          // snapped to an 1/8 lattice: cocircular quadruples everywhere
	sitesBoundary         // every site on an edge of the universe
	sitesOne
	sitesTwo
	numSiteShapes
)

const (
	queryFree = iota
	queryOnSite
	queryMidpoint // equidistant from two sites
	queryCorner   // a corner of the universe
	numQueryShapes
)

// decodeSeedWalk turns fuzz bytes into distinct sites in the unit square and
// a query point. data[0] picks the site shape, data[1] the query shape,
// data[2:5] the query's operands, then three bytes per site: x, y on an
// 1/256 lattice (255 is the far edge) and a flag that moves the site 2⁻¹⁹
// off it — a near-duplicate of whichever site stayed. Every coordinate is a
// multiple of 2⁻²¹, so every squared distance is computed exactly and equal
// distances compare equal.
func decodeSeedWalk(data []byte) (sites []geom.Point, p geom.Point) {
	if len(data) < 8 {
		return nil, geom.Point{}
	}
	lattice := func(b byte) float64 {
		if b == 255 {
			return 1
		}
		return float64(b) / 256
	}
	const nudge = 1.0 / (1 << 19)
	siteShape, queryShape := int(data[0])%numSiteShapes, int(data[1])%numQueryShapes
	seen := make(map[geom.Point]bool)
	for rest := data[5:]; len(rest) >= 3 && len(sites) < 48; rest = rest[3:] {
		x, y, flag := lattice(rest[0]), lattice(rest[1]), rest[2]
		switch siteShape {
		case sitesCollinear:
			y = x
		case sitesLattice:
			x, y = math.Floor(x*8)/8, math.Floor(y*8)/8
		case sitesBoundary:
			switch flag >> 6 {
			case 0:
				x = 0
			case 1:
				x = 1
			case 2:
				y = 0
			default:
				y = 1
			}
		}
		if flag&1 != 0 && siteShape != sitesCollinear && siteShape != sitesBoundary {
			if x < 1 {
				x += nudge
			} else {
				x -= nudge
			}
		}
		if s := geom.Pt(x, y); !seen[s] {
			seen[s] = true
			sites = append(sites, s)
		}
	}
	switch {
	case siteShape == sitesOne && len(sites) > 1:
		sites = sites[:1]
	case siteShape == sitesTwo && len(sites) > 2:
		sites = sites[:2]
	}
	if len(sites) == 0 {
		return nil, geom.Point{}
	}
	a, b := sites[int(data[2])%len(sites)], sites[int(data[3])%len(sites)]
	switch queryShape {
	case queryOnSite:
		p = a
	case queryMidpoint:
		p = geom.Pt((a.X+b.X)/2, (a.Y+b.Y)/2)
	case queryCorner:
		p = geom.Pt(float64(data[2]&1), float64(data[3]&1))
	default:
		p = geom.Pt(lattice(data[2]), lattice(data[3]))
		if data[4]&1 != 0 {
			p.Y += nudge / 2 * (1 - 2*p.Y) // toward the inside, by less than any site is nudged
		}
	}
	return sites, p
}

// FuzzSeedWalk is the differential test of the seed walk: on a static layer,
// on a dynamic snapshot grown by inserting the same sites, and on a snapshot
// pinned halfway — whose writer has since put sites the snapshot does not
// hold into its hint grid — the walk ends at a site as near the query point
// as the R-tree's nearest neighbor and as the nearest by scan, never at a
// fence site. The seeds are the shapes greedy routing on a triangulation is
// known to get wrong when the triangulation is not quite Delaunay.
func FuzzSeedWalk(f *testing.F) {
	square := []byte{0x40, 0x40, 0, 0xc0, 0x40, 0, 0xc0, 0xc0, 0, 0x40, 0xc0, 0}
	scattered := []byte{10, 200, 0, 90, 30, 0, 160, 220, 0, 250, 100, 0, 40, 90, 0, 128, 128, 0, 200, 20, 0}
	seed := func(siteShape, queryShape int, q [3]byte, sites []byte) {
		f.Add(append([]byte{byte(siteShape), byte(queryShape), q[0], q[1], q[2]}, sites...))
	}
	seed(sitesCollinear, queryFree, [3]byte{0x10, 0xf0, 0}, scattered) // all sites on a line, p far off it
	seed(sitesCollinear, queryMidpoint, [3]byte{0, 6, 0}, scattered)   // … and p on it
	seed(sitesFree, queryFree, [3]byte{0x80, 0x80, 0}, square)         // cocircular quadruple, p at its centre
	seed(sitesLattice, queryFree, [3]byte{0x70, 0x70, 1}, scattered)   // lattice, p a hair off a lattice line
	seed(sitesLattice, queryMidpoint, [3]byte{1, 4, 0}, append(square, scattered...))
	seed(sitesFree, queryFree, [3]byte{0x41, 0x40, 0}, append([]byte{0x40, 0x40, 1}, square...)) // near-duplicate pair
	seed(sitesFree, queryOnSite, [3]byte{0, 0, 0}, append([]byte{0x40, 0x40, 1}, square...))
	seed(sitesBoundary, queryFree, [3]byte{0x80, 0x80, 0}, append([]byte{5, 5, 0x00, 9, 250, 0x40, 77, 3, 0x80, 200, 8, 0xc0}, scattered...))
	seed(sitesBoundary, queryCorner, [3]byte{1, 1, 0}, append([]byte{0, 0, 0x00, 255, 255, 0x40}, scattered...)) // sites in the corners themselves
	seed(sitesOne, queryCorner, [3]byte{1, 0, 0}, scattered)
	seed(sitesOne, queryOnSite, [3]byte{0, 0, 0}, scattered)
	seed(sitesTwo, queryMidpoint, [3]byte{0, 1, 0}, scattered) // equidistant from the only two sites
	seed(sitesTwo, queryCorner, [3]byte{0, 1, 0}, scattered)
	seed(sitesFree, queryOnSite, [3]byte{3, 0, 0}, scattered)
	seed(sitesFree, queryMidpoint, [3]byte{2, 5, 0}, scattered)
	seed(sitesFree, queryCorner, [3]byte{0, 0, 0}, scattered)
	rng := rand.New(rand.NewSource(1))
	for n := 16; n <= 149; n *= 3 {
		data := make([]byte, n)
		rng.Read(data)
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sites, p := decodeSeedWalk(data)
		if len(sites) == 0 {
			return
		}
		mem, err := NewMemoryData(sites, unitBounds())
		if err != nil {
			t.Fatal(err)
		}
		checkSeedWalk(t, "static", NewEngine(NewRTreeIndex(sites, 16), mem), sites, p)

		half := (len(sites) + 1) / 2
		de := dynamicOver(t, sites[:half])
		early := de.Snapshot()
		for _, s := range sites[half:] {
			if _, _, err := de.Insert(s); err != nil {
				t.Fatal(err)
			}
		}
		checkSeedWalk(t, "dynamic", de.Snapshot(), sites, p)
		checkSeedWalk(t, "snapshot pinned before later inserts", early, sites[:half], p)
	})
}

// TestSeedWalkNeverStopsOnFence pins what seedWalk's comment claims of the
// dynamic layer's fence: from every bucket's hint, toward query points all
// over the universe and on its corners, a walk over one, two or a few sites
// — the graphs in which most neighbors are fence sites — ends at a user
// site, the nearest.
func TestSeedWalkNeverStopsOnFence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sites := range [][]geom.Point{
		{geom.Pt(0, 0)},
		{geom.Pt(1, 1)},
		{geom.Pt(0.5, 0.5)},
		{geom.Pt(0, 0), geom.Pt(1, 1)},
		{geom.Pt(0, 1), geom.Pt(0.001, 0.999)},
		{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(1, 1)},
		workload.UniformPoints(rng, 7, unitBounds()),
	} {
		eng := dynamicOver(t, sites).Snapshot()
		queries := append(workload.UniformPoints(rng, 200, unitBounds()),
			geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(1, 1), geom.Pt(0.5, 0), geom.Pt(1, 0.5))
		for _, p := range queries {
			checkSeedWalk(t, "dynamic", eng, sites, p)
			if seed, _ := walkFrom(eng, p); seed < delaunay.FirstSiteID {
				t.Fatalf("sites %v: walk toward %v stopped on fence site %d", sites, p, seed)
			}
		}
	}
}

// TestSeedWalkStepsPinned records what the seed costs now that no index
// counter sees it: the moves of the walk, summed and at worst, over fixed
// query points — the interior points TestQueryCostsPinned's regions seed
// from, points near a site and points anywhere — on TestQueryCostsPinned's
// uniform fixture and on a clustered one, for the static layer (grid sized
// to the point count, laid over the points' MBR) and the dynamic one (fixed
// grid over the universe). A hint grid that gets coarser, loses its flood
// into empty buckets or is laid over the wrong rectangle moves these
// integers; the clock would only say so on a quiet machine.
func TestSeedWalkStepsPinned(t *testing.T) {
	type cost struct{ Walks, Steps, Max int }
	uniform, regions := pinnedRegions()
	clustered := workload.ClusteredPoints(rand.New(rand.NewSource(20200420)), 20000, 8, 0.04, unitBounds())
	for _, fix := range []struct {
		name          string
		pts           []geom.Point
		regions       []Region
		static, dynam [3]cost // region anchors, near a site, anywhere
	}{
		{"uniform 6000", uniform, regions,
			[3]cost{{18, 42, 3}, {2000, 4262, 7}, {2000, 4096, 7}},
			[3]cost{{18, 9, 2}, {2000, 545, 2}, {2000, 936, 3}}},
		{"clustered 20000", clustered, nil,
			[3]cost{{0, 0, 0}, {2000, 10622, 17}, {2000, 3085, 15}},
			[3]cost{{0, 0, 0}, {2000, 3300, 6}, {2000, 1218, 7}}},
	} {
		rng := rand.New(rand.NewSource(26))
		var queries [3][]geom.Point
		for _, r := range fix.regions {
			queries[0] = append(queries[0], r.InteriorPoint())
		}
		for i := 0; i < 2000; i++ {
			s := fix.pts[rng.Intn(len(fix.pts))]
			near := func(v float64) float64 { return min(1, max(0, v+rng.NormFloat64()*1e-3)) }
			queries[1] = append(queries[1], geom.Pt(near(s.X), near(s.Y)))
		}
		queries[2] = workload.UniformPoints(rng, 2000, unitBounds())

		mem, err := NewMemoryData(fix.pts, unitBounds())
		if err != nil {
			t.Fatal(err)
		}
		for _, layer := range []struct {
			name string
			eng  *Engine
			want [3]cost
		}{
			{"static", NewEngine(NewRTreeIndex(fix.pts, 16), mem), fix.static},
			{"dynamic", dynamicOver(t, fix.pts).Snapshot(), fix.dynam},
		} {
			for k, kind := range []string{"region anchors", "near a site", "anywhere"} {
				var got cost
				for _, p := range queries[k] {
					_, steps := walkFrom(layer.eng, p)
					got.Walks++
					got.Steps += steps
					got.Max = max(got.Max, steps)
				}
				if got != layer.want[k] {
					t.Errorf("%s, %s, %s: %+v, recorded %+v", fix.name, layer.name, kind, got, layer.want[k])
				}
			}
		}
	}
}
