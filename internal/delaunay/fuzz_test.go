package delaunay

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// latticeSites spells at most 64 sites on the 16×16 integer lattice, a byte
// each (x in the high nibble): few enough positions that duplicates,
// collinear runs and cocircular quadruples are the rule.
func latticeSites(data []byte) []geom.Point {
	pts := make([]geom.Point, 0, 64)
	for _, b := range data[:min(len(data), cap(pts))] {
		pts = append(pts, geom.Pt(float64(b>>4), float64(b&15)))
	}
	return pts
}

func latticeBytes(pts []geom.Point) []byte {
	out := make([]byte, len(pts))
	for i, p := range pts {
		out[i] = byte(p.X)<<4 | byte(p.Y)
	}
	return out
}

// published is one Adjacency result together with copies of what it and
// Points returned, to show that later inserts and later patches leave both
// alone.
type published struct {
	pts            []geom.Point
	rings          Rings
	ptsAt          []geom.Point
	ringsAt        [][]int32
	insertsPrecede int
}

// publish takes d's adjacency, patched from the last one in pubs, and checks
// it against d's own rings and against the last one: its chunks are laid out
// as Rings says, every ring is the walk's, symmetrically, and a chunk is the
// last one's own exactly when it holds no new site and none of its rings
// changed. It appends the adjacency to pubs.
func publish(t *testing.T, d *Dynamic, pubs []published, inserts int) []published {
	t.Helper()
	var last published
	if len(pubs) > 0 {
		last = pubs[len(pubs)-1]
	}
	rings := d.Adjacency(last.rings, len(last.pts))
	if err := checkChunks(rings, d.NumSites()); err != nil {
		t.Fatalf("after insert %d: %v", inserts, err)
	}
	var walk []int32
	for v := range d.NumSites() {
		ring := rings.Ring(int32(v))
		if walk = d.AppendNeighbors(v, walk[:0]); !slices.Equal(ring, walk) {
			t.Fatalf("after insert %d: site %d has published ring %v, walk %v", inserts, v, ring, walk)
		}
		for _, nb := range ring {
			if !slices.Contains(rings.Ring(nb), int32(v)) {
				t.Fatalf("after insert %d: %d is on the ring of %d, not the other way", inserts, nb, v)
			}
		}
	}
	for k := range last.rings {
		lo, hi := k*ChunkSites, min((k+1)*ChunkSites, d.NumSites())
		same := hi <= len(last.pts)
		for v := lo; v < hi && same; v++ {
			same = slices.Equal(rings.Ring(int32(v)), last.rings.Ring(int32(v)))
		}
		if shared := &rings[k][0] == &last.rings[k][0]; shared != same {
			t.Fatalf("after insert %d: chunk %d of sites [%d, %d) shared %v, unchanged %v", inserts, k, lo, hi, shared, same)
		}
	}
	pts := d.Points()
	return append(pubs, published{
		pts: pts, rings: rings,
		ptsAt: slices.Clone(pts), ringsAt: cloneRings(rings),
		insertsPrecede: inserts,
	})
}

func cloneRings(rings Rings) [][]int32 {
	out := make([][]int32, len(rings))
	for k, b := range rings {
		out[k] = slices.Clone(b)
	}
	return out
}

// fillers returns n sites in general position over [0, 15]², none on the
// integer lattice latticeSites spells, the same n every time: few enough
// degenerate quadruples that they leave the exact predicates to the
// lattice sites.
func fillers(n int) []geom.Point {
	rng := rand.New(rand.NewSource(257))
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = geom.Pt(15*rng.Float64(), 15*rng.Float64())
	}
	return out
}

// FuzzDelaunayBuilds holds the one builder to the definition of a Delaunay
// triangulation on whatever sites the bytes spell. Built at once (Bulk,
// fenced by the sites' bounding rectangle), a set with a repeated position is
// refused, and its distinct positions pass checkFenced's scans: symmetric
// rings, 3(n+3)−6 edges, and counterclockwise triangles, the fence's
// included, whose circumcircles hold no site. Inserted one site at a time —
// each walk started where the fuzzer says, or at the nearest site when it
// says nothing — the triangulation is locally Delaunay after every insert.
//
// It also takes the ring chunks a reader is given: after insert k when bit
// k of the third argument (cycled) is set, after every insert when it is
// empty, and after the last. Each is patched from the one before and must
// hold every ring the live walk gives, from the neighbor the walk starts at,
// symmetrically, sharing exactly the chunks no ring of which changed; and
// none of them, nor the site slices published with them, may change
// afterwards. The sites are inserted twice: into an empty triangulation, and
// after enough fillers that the ids of the first half of them fill chunk 0
// and the rest start chunk 1, so the patches cross a chunk boundary
// wherever the fuzzer publishes.
func FuzzDelaunayBuilds(f *testing.F) {
	fix := degenerateFixtures()
	for _, name := range []string{"collinear", "duplicates", "grid8"} {
		f.Add(latticeBytes(fix[name]), []byte(nil), []byte(nil))
		f.Add(latticeBytes(fix[name]), []byte{0, 1, 2, 3, 5, 8, 13, 21}, []byte{0x91})
	}
	f.Add([]byte{0x00, 0x20, 0x22, 0x02, 0x11}, []byte{1}, []byte{0x10})                                             // square + centre
	f.Add([]byte{0x66, 0x96, 0x99, 0x69, 0x55, 0xa5, 0xaa, 0x5a, 0x44, 0xb4, 0xbb, 0x4b}, []byte(nil), []byte{0x88}) // nested squares
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 16*seed) // the shorter, the likelier unique: about half at 16 sites
		rng.Read(data)
		f.Add(data, []byte(nil), []byte{byte(seed)})
		for i := range data { // clustered: a few positions, many times each
			data[i] = data[i%5]
		}
		f.Add(data, []byte{byte(seed)}, []byte(nil))
	}
	f.Fuzz(func(t *testing.T, data, hints, publishAfter []byte) {
		pts := latticeSites(data)
		if len(pts) == 0 {
			return
		}
		distinct := distinctPoints(pts)
		if len(distinct) < len(pts) {
			if _, _, err := Bulk(pts, geom.RectFromPoints(pts...), nil); !errors.Is(err, ErrDuplicateSite) {
				t.Fatalf("bulk build of %v: err = %v, want ErrDuplicateSite", pts, err)
			}
		}
		sites, off, nbrs := bulk(t, distinct)
		if err := checkFenced(sites, off, nbrs, true); err != nil {
			t.Fatalf("bulk build of %v: %v", distinct, err)
		}

		d := NewDynamic(geom.NewRect(0, 0, 15, 15))
		var pubs []published
		for k, p := range pts {
			near := extremeSite(d, p, false)
			if len(hints) > 0 {
				near = int(hints[k%len(hints)])%(d.NumSites()+2) - 1 // -1 … one past the last site
			}
			if _, _, err := d.InsertSiteNear(p, near); err != nil {
				t.Fatal(err)
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("site %d of %v, walk from %d: %v", k, pts, near, err)
			}
			if publishes(publishAfter, k, len(pts)) {
				pubs = publish(t, d, pubs, k+1)
			}
		}

		padded := NewDynamic(geom.NewRect(0, 0, 15, 15))
		for _, p := range fillers(ChunkSites - FirstSiteID - (len(pts)+1)/2) {
			if _, _, err := padded.InsertSite(p); err != nil {
				t.Fatal(err)
			}
		}
		padPubs := publish(t, padded, nil, 0)
		for k, p := range pts {
			if _, _, err := padded.InsertSite(p); err != nil {
				t.Fatal(err)
			}
			if publishes(publishAfter, k, len(pts)) {
				padPubs = publish(t, padded, padPubs, k+1)
			}
		}

		for _, pub := range append(pubs, padPubs...) {
			if !slices.Equal(pub.pts, pub.ptsAt) || !slices.EqualFunc(pub.rings, pub.ringsAt, slices.Equal) {
				t.Fatalf("sites %v: what was published after %d inserts changed after %d", pts, pub.insertsPrecede, len(pts))
			}
		}
	})
}

// publishes reports whether FuzzDelaunayBuilds publishes after insert k of
// n: when bit k of publishAfter (cycled) is set, after every insert when it
// is empty, and after the last.
func publishes(publishAfter []byte, k, n int) bool {
	bit := k % max(8*len(publishAfter), 1)
	return len(publishAfter) == 0 || publishAfter[bit/8]>>(bit%8)&1 == 1 || k == n-1
}

func comparePoints(a, b geom.Point) int {
	return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y))
}
