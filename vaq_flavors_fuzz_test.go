package vaq

import (
	"context"
	"math/rand"
	"slices"
	"testing"
)

// decodeFlavorSites reads up to 64 distinct sites, two bytes each, off a
// 1/16 lattice over the closed unit square (a byte b is the coordinate
// (b mod 17)/16): lattice sites are collinear and cocircular in bulk, and
// those at 0 or 1 lie on the universe's edge.
func decodeFlavorSites(data []byte) []Point {
	var sites []Point
	for i := 0; i+1 < len(data) && len(sites) < 64; i += 2 {
		p := Pt(float64(data[i]%17)/16, float64(data[i+1]%17)/16)
		if !slices.Contains(sites, p) {
			sites = append(sites, p)
		}
	}
	return sites
}

// decodeFlavorPolygon reads up to 16 vertices, two bytes each, off a 1/32
// lattice over the unit square ((b mod 33)/32) — half the site lattice's
// step, so vertices land on sites and edges run through them.
func decodeFlavorPolygon(data []byte) []Point {
	var ring []Point
	for i := 0; i+1 < len(data) && len(ring) < 16; i += 2 {
		ring = append(ring, Pt(float64(data[i]%33)/32, float64(data[i+1]%33)/32))
	}
	return ring
}

// FuzzFlavorsAgree runs one fuzzed polygon over one fuzzed lattice site set
// on every in-process flavor — static, WithStore on small pages behind a
// two-page pool, three shards, and a DynamicEngine snapshot — and holds each
// method to a scan of the input sites: Traditional, VoronoiBFSStrict and
// BruteForce must return exactly the sites the polygon contains, VoronoiBFS
// (whose published rule may stop short) a subset of them. A polygon
// NewPolygon refuses is skipped.
func FuzzFlavorsAgree(f *testing.F) {
	square := []byte{4, 4, 12, 4, 12, 12, 4, 12, 8, 8}                         // a square of sites and its centre
	f.Add(square, []byte{4, 4, 28, 4, 28, 28, 4, 28})                          // a square through four sites
	f.Add(square, []byte{0, 0, 32, 0, 32, 32, 0, 32})                          // the universe
	f.Add(square, []byte{16, 0, 32, 16, 16, 32, 0, 16})                        // a diamond touching every edge
	f.Add([]byte{0, 0, 16, 16, 0, 16, 16, 0}, []byte{0, 0, 32, 32, 0, 32})     // corner sites, an edge along the diagonal
	f.Add([]byte{1, 8, 3, 8, 5, 8, 7, 8, 9, 8}, []byte{2, 16, 30, 15, 30, 17}) // collinear sites, a sliver across them
	rng := rand.New(rand.NewSource(37))
	for n := 8; n <= 128; n *= 2 {
		sites, poly := make([]byte, n), make([]byte, 12)
		rng.Read(sites)
		rng.Read(poly)
		f.Add(sites, poly)
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, siteBytes, polyBytes []byte) {
		sites := decodeFlavorSites(siteBytes)
		pg, err := NewPolygon(decodeFlavorPolygon(polyBytes))
		if len(sites) == 0 || err != nil {
			return
		}
		region := PolygonRegion(pg)
		var want []int64
		for i, p := range sites {
			if region.ContainsPoint(p) {
				want = append(want, int64(i))
			}
		}

		type flavor struct {
			name     string
			q        Querier
			toGlobal map[int64]int64 // nil: ids are input indexes
		}
		var flavors []flavor
		for _, c := range []struct {
			name string
			new  func() (Querier, error)
		}{
			{"static", func() (Querier, error) { return NewEngine(sites, UnitSquare()) }},
			{"store", func() (Querier, error) {
				return NewEngine(sites, UnitSquare(), WithStore(StoreConfig{PageSize: 256, PoolPages: 2, PayloadBytes: 8}))
			}},
			{"sharded", func() (Querier, error) { return NewShardedEngine(sites, UnitSquare(), WithShards(3)) }},
		} {
			q, err := c.new()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			flavors = append(flavors, flavor{c.name, q, nil})
		}
		dyn := NewDynamicEngine(UnitSquare())
		toGlobal := make(map[int64]int64, len(sites))
		for i, p := range sites {
			id, inserted, err := dyn.Insert(p)
			if err != nil || !inserted {
				t.Fatalf("dynamic: insert %d %v: inserted %v, err %v", i, p, inserted, err)
			}
			toGlobal[id] = int64(i)
		}
		flavors = append(flavors, flavor{"snapshot", dyn.Snapshot(), toGlobal})

		for _, fl := range flavors {
			for _, m := range []Method{Traditional, VoronoiBFSStrict, BruteForce, VoronoiBFS} {
				ids, err := fl.q.Query(ctx, region, UsingMethod(m))
				if err != nil {
					t.Fatalf("%s/%v: %v", fl.name, m, err)
				}
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
				if m == VoronoiBFS {
					for _, id := range got {
						if _, found := slices.BinarySearch(want, id); !found {
							t.Fatalf("%s/%v: site %d %v is outside %v", fl.name, m, id, sites[id], pg.Outer)
						}
					}
					continue
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s/%v over %d sites: %v, scan %v; polygon %v", fl.name, m, len(sites), got, want, pg.Outer)
				}
			}
		}
	})
}
