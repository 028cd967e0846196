package vaq_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"

	vaq "repro"
	"repro/internal/geom"
	"repro/internal/serve"
)

// decodeFlavorSites reads up to 64 distinct sites, two bytes each, off a
// 1/16 lattice over the closed unit square (a byte b is the coordinate
// (b mod 17)/16): lattice sites are collinear and cocircular in bulk, and
// those at 0 or 1 lie on the universe's edge. A byte from 238 up is the
// coordinate (b−238)/17 instead: off the dyadic lattice, where distances and
// bounds round.
func decodeFlavorSites(data []byte) []vaq.Point {
	coord := func(b byte) float64 {
		if b >= 238 {
			return float64(b-238) / 17
		}
		return float64(b%17) / 16
	}
	var sites []vaq.Point
	for i := 0; i+1 < len(data) && len(sites) < 64; i += 2 {
		p := vaq.Pt(coord(data[i]), coord(data[i+1]))
		if !slices.Contains(sites, p) {
			sites = append(sites, p)
		}
	}
	return sites
}

// decodeFlavorRegion reads a region off a 1/32 lattice over the unit
// square ((b mod 33)/32) — half the site lattice's step, so vertices land on
// sites, edges run through them and along their bisectors, and both pass
// through the sites' cocircular Voronoi vertices.
//
// Three or five bytes spell a circle: its centre on the lattice and its
// radius (b mod 32 + 1)/32, so circles pass through sites in bulk. Four
// bytes spell a circle through a site: its centre the midpoint of sites
// data[0] and data[1], its radius the distance from there to site data[2]
// (each mod the site count; the fourth byte is not read). Six bytes or more
// spell a polygon: up to 16 vertices, two bytes each, spell the outer ring;
// after each byte 255 the rest spells a hole the same way. A polygon
// coordinate byte 254 is one ulp past 1, just outside the universe. ok is
// false when there are fewer than three bytes or no site, or when
// NewPolygon refuses the outer ring; a hole AddHole refuses (one not
// strictly inside the outer ring, say) is dropped.
//
// A polygon whose first byte is 253 is a literal instead: the byte is
// dropped, and the rings make a plain Polygon as they are spelled, through
// neither NewPolygon nor AddHole, so a ring may cross itself and a hole
// cross the outer ring or another. refused is then the error those two
// return building the same rings, nil when they build it.
func decodeFlavorRegion(data []byte, sites []vaq.Point) (region vaq.Region, refused error, ok bool) {
	coord := func(b byte) float64 { return float64(b%33) / 32 }
	if len(data) == 4 && len(sites) > 0 {
		site := func(b byte) vaq.Point { return sites[int(b)%len(sites)] }
		a, b := site(data[0]), site(data[1])
		centre := vaq.Pt((a.X+b.X)/2, (a.Y+b.Y)/2)
		return vaq.CircleRegion(vaq.NewCircle(centre, math.Sqrt(centre.Dist2(site(data[2]))))), nil, true
	}
	if len(data) < 6 {
		if len(data) < 3 {
			return nil, nil, false
		}
		return vaq.CircleRegion(vaq.NewCircle(vaq.Pt(coord(data[0]), coord(data[1])), float64(data[2]%32+1)/32)), nil, true
	}
	ring := func(data []byte) vaq.Ring {
		var ring vaq.Ring
		for i := 0; i+1 < len(data) && len(ring) < 16; i += 2 {
			xy := [2]float64{}
			for j, b := range data[i : i+2] {
				xy[j] = coord(b)
				if b == 254 {
					xy[j] = math.Nextafter(1, 2)
				}
			}
			ring = append(ring, vaq.Pt(xy[0], xy[1]))
		}
		return ring
	}
	literal := data[0] == 253
	if literal {
		data = data[1:]
	}
	parts := bytes.Split(data, []byte{255})
	lit := vaq.Polygon{Outer: ring(parts[0])}
	for _, h := range parts[1:] {
		lit.Holes = append(lit.Holes, ring(h))
	}
	pg, err := vaq.NewPolygon(lit.Outer)
	for _, h := range lit.Holes {
		if err != nil {
			break
		}
		if herr := pg.AddHole(h); literal {
			err = herr // a refused hole is dropped unless the polygon is a literal
		}
	}
	if literal {
		return lit, err, true
	}
	return vaq.PolygonRegion(pg), nil, err == nil
}

// FuzzFlavorsAgree runs one fuzzed polygon or circle over one fuzzed
// lattice site set on every flavor — static, WithStore on small pages
// behind a two-page pool, three shards, a DynamicEngine snapshot, and (from
// two sites up) a RemoteEngine dialled over two served halves of the sites,
// whose kernel runs VoronoiBFS as the strict rule on each backend — and
// holds each method to a scan of the input sites: Traditional, VoronoiBFSStrict and BruteForce must return exactly
// the sites the region contains, and Count their number; VoronoiBFS (whose
// published rule may stop short) returns a subset of them. A region whose
// MBR escapes the unit square must be refused by every flavor and method
// with ErrOutsideUniverse. A polygon NewPolygon refuses is skipped, and a
// literal one that NewPolygon or AddHole would refuse must be refused by
// every flavor and method with their error, Count included; a literal is
// queried by value and by pointer, alike. A circle also
// runs as half of a disconnected custom region (twoDisks), when its mirror
// across x = 1/2 misses it.
// testdata/fuzz/FuzzFlavorsAgree holds sites 1/17 apart on a row and the
// circle centred between sites 1 and 12 through site 1, which the
// circle's MBR rounds out, and, over 64 sites on a grid, literals: a
// bowtie, a figure-eight, a ring that doubles back across itself, a ring
// pinched at a vertex, a hole across the outer ring and a hole in another
// (all refused), and a square whose lowest vertex is repeated (answered).
func FuzzFlavorsAgree(f *testing.F) {
	square := []byte{4, 4, 12, 4, 12, 12, 4, 12, 8, 8}                         // a square of sites and its centre
	f.Add(square, []byte{4, 4, 28, 4, 28, 28, 4, 28})                          // a square through four sites
	f.Add(square, []byte{0, 0, 32, 0, 32, 32, 0, 32})                          // the universe
	f.Add(square, []byte{16, 0, 32, 16, 16, 32, 0, 16})                        // a diamond touching every edge
	f.Add([]byte{0, 0, 16, 16, 0, 16, 16, 0}, []byte{0, 0, 32, 32, 0, 32})     // corner sites, an edge along the diagonal
	f.Add([]byte{1, 8, 3, 8, 5, 8, 7, 8, 9, 8}, []byte{2, 16, 30, 15, 30, 17}) // collinear sites, a sliver across them
	// The strict rule's trace of ∂R on a 3×3 block of sites 1/8 apart, whose
	// bisectors lie on odd sixteenths and whose Voronoi vertices are each
	// cocircular with four sites.
	block := []byte{6, 6, 6, 8, 6, 10, 8, 6, 8, 8, 8, 10, 10, 6, 10, 8, 10, 10}
	f.Add(block, []byte{14, 4, 14, 28, 28, 16})                                   // an edge along a bisector
	f.Add(block, []byte{10, 10, 18, 18, 10, 26})                                  // an edge through a four-site Voronoi vertex
	f.Add(block, []byte{14, 20, 26, 12, 26, 28})                                  // a vertex equidistant to two sites
	f.Add(block, []byte{2, 2, 30, 2, 30, 30, 2, 30, 255, 15, 15, 17, 15, 16, 17}) // a hole inside one cell
	f.Add(block, []byte{2, 16, 30, 16, 30, 17})                                   // a needle across the block
	// Eight sites on one circle (offsets (±1, ±2) and (±2, ±1) from its
	// centre) and an edge through the centre along no bisector: six of the
	// cells meet ∂R only at that Voronoi vertex, and some lie on each side.
	octagon := []byte{9, 10, 10, 9, 10, 7, 9, 6, 7, 6, 6, 7, 6, 9, 7, 10}
	f.Add(octagon, []byte{6, 14, 26, 18, 16, 30})
	f.Add(octagon, []byte{6, 14, 26, 18, 16, 2})
	// Circles: through the four sites next to the block's centre, around
	// all eight of the octagon's, and one whose MBR pokes out of the
	// universe.
	f.Add(block, []byte{16, 16, 3})
	f.Add(octagon, []byte{16, 16, 4})
	f.Add(square, []byte{32, 16, 3})
	// A circle through the block's left middle site, whose mirror passes
	// through its right one: two disks, the custom region's components.
	f.Add(block, []byte{8, 16, 3})
	// A square through four sites whose right edge lies one ulp outside.
	f.Add(square, []byte{4, 4, 254, 4, 254, 28, 4, 28})
	rng := rand.New(rand.NewSource(37))
	for n := 8; n <= 128; n *= 2 {
		sites, poly := make([]byte, n), make([]byte, 12)
		rng.Read(sites)
		rng.Read(poly)
		f.Add(sites, poly)
	}
	// The remote flavor's two backends: started once, each serving through
	// the handler the current input installed, over one client whose
	// connections every input reuses.
	var halves [2]atomic.Value // http.Handler
	var urls [2]string
	for i := range halves {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			halves[i].Load().(http.Handler).ServeHTTP(w, r)
		}))
		f.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	client := &http.Client{Transport: &http.Transport{}}
	f.Cleanup(client.CloseIdleConnections)

	ctx := context.Background()
	f.Fuzz(func(t *testing.T, siteBytes, regionBytes []byte) {
		sites := decodeFlavorSites(siteBytes)
		region, refused, ok := decodeFlavorRegion(regionBytes, sites)
		if len(sites) == 0 || !ok {
			return
		}
		escapes := !vaq.UnitSquare().ContainsRect(region.Bounds())
		var want []int64
		for i, p := range sites {
			if region.ContainsPoint(p) {
				want = append(want, int64(i))
			}
		}

		type flavor struct {
			name     string
			q        vaq.Querier
			toGlobal map[int64]int64 // nil: ids are input indexes
		}
		var flavors []flavor
		for _, c := range []struct {
			name string
			new  func() (vaq.Querier, error)
		}{
			{"static", func() (vaq.Querier, error) { return vaq.NewEngine(sites, vaq.UnitSquare()) }},
			{"store", func() (vaq.Querier, error) {
				return vaq.NewEngine(sites, vaq.UnitSquare(), vaq.WithStore(vaq.StoreConfig{PageSize: 256, PoolPages: 2, PayloadBytes: 8}))
			}},
			{"sharded", func() (vaq.Querier, error) { return vaq.NewShardedEngine(sites, vaq.UnitSquare(), vaq.WithShards(3)) }},
		} {
			q, err := c.new()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			flavors = append(flavors, flavor{c.name, q, nil})
		}
		dyn := vaq.NewDynamicEngine(vaq.UnitSquare())
		toGlobal := make(map[int64]int64, len(sites))
		for i, p := range sites {
			id, inserted, err := dyn.Insert(p)
			if err != nil || !inserted {
				t.Fatalf("dynamic: insert %d %v: inserted %v, err %v", i, p, inserted, err)
			}
			toGlobal[id] = int64(i)
		}
		flavors = append(flavors, flavor{"snapshot", dyn.Snapshot(), toGlobal})
		if h := len(sites) / 2; h > 0 {
			for i, half := range [2][]vaq.Point{sites[:h], sites[h:]} {
				eng, err := vaq.NewEngine(half, vaq.UnitSquare())
				if err != nil {
					t.Fatalf("remote half %d: %v", i, err)
				}
				halves[i].Store(serve.NewHandler(eng, serve.Config{IDOffset: int64(i * h), Flavor: "static"}))
			}
			re, err := vaq.DialRemote(ctx, urls[:], vaq.WithRemoteClient(client))
			if err != nil {
				t.Fatalf("remote: %v", err)
			}
			flavors = append(flavors, flavor{"remote", re, nil})
		}

		// sorted maps a flavor's ids to input indexes, ascending.
		sorted := func(fl flavor, m vaq.Method, ids []int64) []int64 {
			got := make([]int64, len(ids))
			for i, id := range ids {
				got[i] = id
				if fl.toGlobal != nil {
					g, ok := fl.toGlobal[id]
					if !ok {
						t.Fatalf("%s/%v: id %d is no inserted site", fl.name, m, id)
					}
					got[i] = g
				}
			}
			slices.Sort(got)
			return got
		}
		// A literal is queried by value and by pointer: admission prepares
		// both, so both get one answer or one refusal.
		regions := []vaq.Region{region}
		if lit, isLiteral := region.(vaq.Polygon); isLiteral {
			regions = append(regions, &lit)
		}
		methods := []vaq.Method{vaq.Traditional, vaq.VoronoiBFSStrict, vaq.BruteForce, vaq.VoronoiBFS}
		for _, fl := range flavors {
			for _, m := range methods {
				for _, region := range regions {
					ids, err := fl.q.Query(ctx, region, vaq.UsingMethod(m))
					if refused != nil {
						n, cerr := vaq.Count(ctx, fl.q, region, vaq.UsingMethod(m))
						if !errors.Is(err, refused) || ids != nil || !errors.Is(cerr, refused) {
							t.Fatalf("%s/%v/%T: a literal NewPolygon or AddHole refuse with %v: %d ids (err %v), Count %d (err %v); region %v",
								fl.name, m, region, refused, len(ids), err, n, cerr, regionBytes)
						}
						continue
					}
					if escapes {
						n, cerr := vaq.Count(ctx, fl.q, region, vaq.UsingMethod(m))
						if !errors.Is(err, vaq.ErrOutsideUniverse) || ids != nil || !errors.Is(cerr, vaq.ErrOutsideUniverse) {
							t.Fatalf("%s/%v/%T: region with MBR %v beyond the universe: %d ids (err %v), Count %d (err %v); want ErrOutsideUniverse",
								fl.name, m, region, region.Bounds(), len(ids), err, n, cerr)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s/%v/%T: %v", fl.name, m, region, err)
					}
					got := sorted(fl, m, ids)
					if m == vaq.VoronoiBFS {
						for _, id := range got {
							if _, found := slices.BinarySearch(want, id); !found {
								t.Fatalf("%s/%v/%T: site %d %v is outside the region %v", fl.name, m, region, id, sites[id], regionBytes)
							}
						}
						continue
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s/%v/%T over %d sites: %v, scan %v; region %v", fl.name, m, region, len(sites), got, want, regionBytes)
					}
					if n, err := vaq.Count(ctx, fl.q, region, vaq.UsingMethod(m)); err != nil || n != len(want) {
						t.Fatalf("%s/%v/%T over %d sites: Count %d (err %v), scan %d; region %v", fl.name, m, region, len(sites), n, err, len(want), regionBytes)
					}
				}
			}
		}

		// A circle and its mirror image across x = 1/2, when the two are
		// disjoint, make a disconnected custom region. A local flavor's
		// Traditional and BruteForce return exactly the sites a scan finds
		// in either disk; the Voronoi methods, whose expansion starts in one
		// component, a subset of them; the remote flavor refuses it before
		// sending anything, having no wire form for it.
		circle, isCircle := region.(vaq.Circle)
		if !isCircle || escapes || math.Abs(1-2*circle.Center.X) <= 2*circle.R {
			return
		}
		custom := twoDisks{circle, vaq.NewCircle(vaq.Pt(1-circle.Center.X, circle.Center.Y), circle.R)}
		if !vaq.UnitSquare().ContainsRect(custom.Bounds()) {
			return
		}
		var wantCustom []int64
		for i, p := range sites {
			if custom.ContainsPoint(p) {
				wantCustom = append(wantCustom, int64(i))
			}
		}
		for _, fl := range flavors {
			for _, m := range methods {
				ids, err := fl.q.Query(ctx, custom, vaq.UsingMethod(m))
				if fl.name == "remote" {
					if !errors.Is(err, vaq.ErrCustomRegion) || ids != nil {
						t.Fatalf("remote/%v: a custom region: %d ids (err %v); want ErrCustomRegion", m, len(ids), err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s/%v: two disks %v: %v", fl.name, m, custom, err)
				}
				got := sorted(fl, m, ids)
				if m == vaq.Traditional || m == vaq.BruteForce {
					if !slices.Equal(got, wantCustom) {
						t.Fatalf("%s/%v: two disks %v over %d sites: %v, scan %v", fl.name, m, custom, len(sites), got, wantCustom)
					}
					continue
				}
				for _, id := range got {
					if _, found := slices.BinarySearch(wantCustom, id); !found {
						t.Fatalf("%s/%v: site %d %v is outside the two disks %v", fl.name, m, id, sites[id], custom)
					}
				}
			}
		}
	})
}

// twoDisks is a custom Region of two disjoint disks: disconnected, with no
// wire form, and none of the optional interfaces a Polygon or Circle has.
type twoDisks struct{ a, b vaq.Circle }

func (r twoDisks) Bounds() vaq.Rect { return r.a.Bounds().Union(r.b.Bounds()) }
func (r twoDisks) ContainsPoint(p vaq.Point) bool {
	return r.a.ContainsPoint(p) || r.b.ContainsPoint(p)
}
func (r twoDisks) IntersectsSegment(s geom.Segment) bool {
	return r.a.IntersectsSegment(s) || r.b.IntersectsSegment(s)
}
func (r twoDisks) InteriorPoint() vaq.Point { return r.a.InteriorPoint() }
