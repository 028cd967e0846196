package delaunay

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

func unitUniverse() geom.Rect { return geom.NewRect(0, 0, 1, 1) }

func TestDynamicEmpty(t *testing.T) {
	d := NewDynamic(unitUniverse())
	if len(d.Points()) != FirstSiteID {
		t.Fatalf("fresh dynamic: %d sites, want the %d fence sites", len(d.Points()), FirstSiteID)
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
	// Fence triangle adjacency: each fence vertex has the other two.
	for v := 0; v < FirstSiteID; v++ {
		if got := len(d.AppendNeighbors(v, nil)); got != 2 {
			t.Errorf("fence vertex %d has %d neighbors, want 2", v, got)
		}
	}
}

func TestDynamicRejectsOutside(t *testing.T) {
	d := NewDynamic(unitUniverse())
	if _, _, err := d.InsertSite(geom.Pt(2, 2)); err == nil {
		t.Error("insert outside universe should fail")
	}
}

func TestDynamicInsertAndValidateIncrementally(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDynamic(unitUniverse())
	for i := 0; i < 300; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		id, inserted, err := d.InsertSite(p)
		if err != nil {
			t.Fatal(err)
		}
		if !inserted {
			t.Fatalf("random point %v reported duplicate", p)
		}
		if d.Points()[id] != p {
			t.Fatalf("Points()[%d] = %v, want %v", id, d.Points()[id], p)
		}
		if i%25 == 0 {
			if err := d.Validate(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Points()) != FirstSiteID+300 {
		t.Errorf("sites = %d, want 300 and the fence", len(d.Points()))
	}
}

func TestDynamicDuplicateInsert(t *testing.T) {
	d := NewDynamic(unitUniverse())
	p := geom.Pt(0.3, 0.7)
	id1, ins1, err := d.InsertSite(p)
	if err != nil || !ins1 {
		t.Fatalf("first insert: id=%d ins=%v err=%v", id1, ins1, err)
	}
	id2, ins2, err := d.InsertSite(p)
	if err != nil {
		t.Fatal(err)
	}
	if ins2 || id2 != id1 {
		t.Errorf("duplicate insert: id=%d ins=%v, want id=%d ins=false", id2, ins2, id1)
	}
	if len(d.Points()) != FirstSiteID+1 {
		t.Errorf("sites = %d, want 1 and the fence", len(d.Points()))
	}
}

func TestDynamicOnEdgeInsertion(t *testing.T) {
	// Grid points force insertions exactly on existing Delaunay edges.
	d := NewDynamic(unitUniverse())
	for x := 0; x <= 4; x++ {
		for y := 0; y <= 4; y++ {
			p := geom.Pt(float64(x)/4, float64(y)/4)
			if _, _, err := d.InsertSite(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Midpoints of grid cells' edges lie exactly on many triangulation
	// edges.
	for x := 0; x < 4; x++ {
		p := geom.Pt(float64(x)/4+0.125, 0.5)
		if _, _, err := d.InsertSite(p); err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("after on-edge insert %v: %v", p, err)
		}
	}
}

func TestDynamicMatchesStaticBuild(t *testing.T) {
	// Insert random points one by one, unhinted; compare every site's
	// neighbors with a bulk build of the same points in reverse order under
	// the same fence (Delaunay is unique for points in general position).
	rng := rand.New(rand.NewSource(2))
	d := NewDynamic(unitUniverse())
	var pts []geom.Point
	for i := 0; i < 150; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		pts = append(pts, p)
		if _, _, err := d.InsertSite(p); err != nil {
			t.Fatal(err)
		}
	}
	order := make([]int32, len(pts))
	for i := range order {
		order[i] = int32(len(pts) - 1 - i)
	}
	sites, rings, err := Bulk(pts, unitUniverse(), order)
	if err != nil {
		t.Fatal(err)
	}
	for v, p := range sites {
		id, ok := siteAt(d, p)
		if !ok {
			t.Fatalf("site %v is not in the dynamic triangulation", p)
		}
		var got, want []geom.Point
		for _, nb := range d.AppendNeighbors(id, nil) {
			got = append(got, d.Points()[nb])
		}
		for _, nb := range rings.Ring(int32(v)) {
			want = append(want, sites[nb])
		}
		slices.SortFunc(got, comparePoints)
		slices.SortFunc(want, comparePoints)
		if !slices.Equal(got, want) {
			t.Fatalf("site %v: neighbors %v inserted, %v built", p, got, want)
		}
	}
}

func TestDynamicCocircularInsertions(t *testing.T) {
	// Insert the corners of many axis-aligned squares: every quadruple is
	// cocircular, stressing exact in-circle decisions during swaps.
	d := NewDynamic(unitUniverse())
	for s := 1; s <= 4; s++ {
		side := float64(s) * 0.1
		for _, p := range []geom.Point{
			geom.Pt(0.5-side, 0.5-side), geom.Pt(0.5+side, 0.5-side),
			geom.Pt(0.5+side, 0.5+side), geom.Pt(0.5-side, 0.5+side),
		} {
			if _, _, err := d.InsertSite(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("after square %d: %v", s, err)
		}
	}
}

func TestDynamicSingleSite(t *testing.T) {
	d := NewDynamic(unitUniverse())
	if _, _, err := d.InsertSite(geom.Pt(0.5, 0.5)); err != nil {
		t.Fatal(err)
	}
	// The lone user site's neighbors are exactly the three fence sites.
	nbs := d.AppendNeighbors(FirstSiteID, nil)
	if len(nbs) != 3 {
		t.Errorf("lone site neighbors = %v", nbs)
	}
}

func BenchmarkDynamicInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	d := NewDynamic(unitUniverse())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.InsertSite(geom.Pt(rng.Float64(), rng.Float64())); err != nil {
			b.Fatal(err)
		}
	}
}

// hintPolicy is one way a caller can choose InsertSiteNear's hint; a nil hint
// is InsertSite itself.
type hintPolicy struct {
	name string
	hint func(d *Dynamic, x geom.Point) int
}

// hintPolicies are the good and the hostile ones.
var hintPolicies = []hintPolicy{
	{"none", nil},
	{"nearest", func(d *Dynamic, x geom.Point) int { return extremeSite(d, x, false) }},
	{"farthest", func(d *Dynamic, x geom.Point) int { return extremeSite(d, x, true) }},
	{"fence", func(d *Dynamic, x geom.Point) int { return len(d.Points()) % FirstSiteID }},
	{"negative", func(*Dynamic, geom.Point) int { return -1 }},
	{"unassigned", func(d *Dynamic, x geom.Point) int { return len(d.Points()) + len(d.Points())%2 }},
}

// extremeSite returns the user site nearest to x, or farthest from it; -1
// while there is none.
func extremeSite(d *Dynamic, x geom.Point, farthest bool) int {
	best, bestD := -1, 0.0
	for id := FirstSiteID; id < len(d.Points()); id++ {
		dist := d.Points()[id].Dist2(x)
		if best == -1 || (dist > bestD) == farthest {
			best, bestD = id, dist
		}
	}
	return best
}

func insertWithHint(t *testing.T, d *Dynamic, x geom.Point, hint func(*Dynamic, geom.Point) int) {
	t.Helper()
	var err error
	if hint == nil {
		_, _, err = d.InsertSite(x)
	} else {
		_, _, err = d.InsertSiteNear(x, hint(d, x))
	}
	if err != nil {
		t.Fatal(err)
	}
}

// canonicalRing returns id's neighbor ring rotated to start at its lowest
// id: where a ring starts its rotation is the walk's arrival edge showing
// through, the cyclic order is the triangulation.
func canonicalRing(d *Dynamic, id int) []int32 {
	ring := d.AppendNeighbors(id, nil)
	lo := 0
	for i, v := range ring {
		if v < ring[lo] {
			lo = i
		}
	}
	return append(ring[lo:len(ring):len(ring)], ring[:lo]...)
}

// TestHintChangesOnlyTheWalk inserts one arrival order under every hint
// policy: each site must end with the ring the unhinted build gives it.
func TestHintChangesOnlyTheWalk(t *testing.T) {
	pts := uniformPoints(rand.New(rand.NewSource(31)), 600)
	var want [][]int32
	for _, pol := range hintPolicies {
		d := NewDynamic(unitUniverse())
		for _, p := range pts {
			insertWithHint(t, d, p, pol.hint)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", pol.name, err)
		}
		rings := make([][]int32, len(d.Points()))
		for id := range rings {
			rings[id] = canonicalRing(d, id)
		}
		if want == nil {
			want = rings
			continue
		}
		for id := range rings {
			if !slices.Equal(rings[id], want[id]) {
				t.Fatalf("%s hint: site %d has ring %v, unhinted %v", pol.name, id, rings[id], want[id])
			}
		}
	}
}

// TestHintedCocircularAndOnEdgeInsertions runs the lattice of
// TestDynamicCocircularInsertions, then splits edges at their midpoints,
// under every hint policy — and once with each hint the endpoint of the
// edge just split, whose vertEdge entry that insertion had to repoint.
func TestHintedCocircularAndOnEdgeInsertions(t *testing.T) {
	var lattice []geom.Point
	for s := 1; s <= 4; s++ {
		side := float64(s) * 0.125
		lattice = append(lattice,
			geom.Pt(0.5-side, 0.5-side), geom.Pt(0.5+side, 0.5-side),
			geom.Pt(0.5+side, 0.5+side), geom.Pt(0.5-side, 0.5+side))
	}
	policies := append(slices.Clone(hintPolicies), hintPolicy{name: "repointed"})
	for _, pol := range policies {
		d := NewDynamic(unitUniverse())
		for _, p := range lattice {
			insertWithHint(t, d, p, pol.hint)
			if err := d.Validate(); err != nil {
				t.Fatalf("%s hint, lattice site %v: %v", pol.name, p, err)
			}
		}
		// The bottom side of each square is a Delaunay edge (a circle through
		// its ends, centred one side below it, holds no other corner); split
		// it at its midpoint.
		repointed := -1
		for s := 1; s <= 4; s++ {
			side := float64(s) * 0.125
			a, _ := siteAt(d, geom.Pt(0.5-side, 0.5-side))
			b, _ := siteAt(d, geom.Pt(0.5+side, 0.5-side))
			ab := edgeFromTo(d, a, b)
			if ab == nilEdge {
				t.Fatalf("%s hint: sites %d and %d are not neighbors", pol.name, a, b)
			}
			mid := geom.Pt(0.5, 0.5-side)
			if pol.name != "repointed" {
				insertWithHint(t, d, mid, pol.hint)
			} else {
				d.vertEdge[a] = ab // any edge out of a is a valid entry; this one is about to go
				if _, _, err := d.InsertSiteNear(mid, repointed); err != nil {
					t.Fatal(err)
				}
				if d.vertEdge[a] == ab {
					t.Fatalf("vertEdge[%d] still names the split edge", a)
				}
				repointed = a
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("%s hint, midpoint %v: %v", pol.name, mid, err)
			}
			if m, ok := siteAt(d, mid); !ok || edgeFromTo(d, m, a) == nilEdge || edgeFromTo(d, m, b) == nilEdge {
				t.Fatalf("%s hint: midpoint %v is not joined to both ends of the edge it split", pol.name, mid)
			}
		}
	}
}

// edgeFromTo returns the edge from site a to site b, nilEdge when they are
// not neighbors.
func edgeFromTo(d *Dynamic, a, b int) edgeID {
	start := d.vertEdge[a]
	for e := start; ; {
		if int(d.pool.dst(e)) == b {
			return e
		}
		if e = d.pool.onext[e]; e == start {
			return nilEdge
		}
	}
}

// siteAt returns the id of the site at exactly x, found by a scan of the
// sites, and whether there is one.
func siteAt(d *Dynamic, x geom.Point) (int, bool) {
	i := slices.Index(d.Points(), x)
	return i, i >= 0
}
