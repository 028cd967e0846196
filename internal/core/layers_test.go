package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/voronoi"
	"repro/internal/workload"
)

// ring returns the Voronoi neighbors of id in d, in place, through the
// accessor every query reads them by.
func ring(d *MemoryData, id int) []int32 { return d.rings.Ring(int32(id)) }

// scanCell is the reference Voronoi cell of site id among pts, clipped to
// clip, found by scans and from no triangulation: clip cut by the bisector
// of id and every other site, fence sites included, near enough to cut it.
// A site more than twice as far as the farthest vertex of a cell cut by some
// of the sites cannot cut it, so the sites within ρ cut it until ρ covers
// twice that vertex's distance.
func scanCell(pts []geom.Point, id int, clip geom.Rect) geom.Ring {
	site := pts[id]
	rho2 := clip.Area() / float64(len(pts)) // about one site's share of clip
	var near []int32
	for {
		near = near[:0]
		for j, p := range pts {
			if j != id && site.Dist2(p) <= rho2 {
				near = append(near, int32(j))
			}
		}
		cell, _ := voronoi.CellFromNeighbors(nil, nil, site, near, pts, clip)
		r2 := 0.0
		for _, v := range cell {
			r2 = max(r2, site.Dist2(v))
		}
		if 4*r2 <= rho2 {
			return cell
		}
		rho2 = 4 * r2
	}
}

// TestDataLayersAgree: where a record comes from changes what a query costs,
// never what it decides. Every method returns the same ids in the same order
// with the same counters on a memory layer and on a store layer over the same
// points, and the same points — under ids shifted past the fence — on a
// dynamic snapshot that inserted them in order. A store layer whose pool
// holds every page (a twin, emptied before each query) asks its pool for
// each page its loaded records lie on exactly once per query: every ask
// misses, so its page reads are those pages and it hits nothing. A store
// layer whose pool holds 8 pages asks at least that often and at most once
// per record loaded, since a page that left the pool mid-query is asked
// for again. The memory layer fetches nothing.
func TestDataLayersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pts := workload.UniformPoints(rng, 20000, unitBounds())
	mem, err := NewMemoryData(pts, unitBounds())
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStoreData(pts, unitBounds(), StoreConfig{PageSize: 1024, PoolPages: 8, PayloadBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewStoreData(pts, unitBounds(), StoreConfig{PageSize: 1024, PoolPages: -1, PayloadBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	idx := NewRTreeIndex(pts, 16)
	memEng, storeEng, twinEng := NewEngine(idx, mem), NewEngine(idx, store), NewEngine(idx, twin)
	dynEng := dynamicOver(t, pts).Snapshot()

	holed := geom.MustPolygon([]geom.Point{geom.Pt(0.2, 0.2), geom.Pt(0.7, 0.2), geom.Pt(0.7, 0.7), geom.Pt(0.2, 0.7)})
	if err := holed.AddHole([]geom.Point{geom.Pt(0.3, 0.3), geom.Pt(0.6, 0.3), geom.Pt(0.6, 0.6), geom.Pt(0.3, 0.6)}); err != nil {
		t.Fatal(err)
	}
	regions := map[string]Region{
		"1 % polygon":    PolygonRegion(workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.01}, unitBounds())),
		"0.01 % polygon": PolygonRegion(workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.0001}, unitBounds())),
		"circle":         CircleRegion(geom.Circle{Center: geom.Pt(0.4, 0.6), R: 0.07}),
		"holed":          PolygonRegion(holed),
		"no sites":       PolygonRegion(geom.MustPolygon([]geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0.5+1e-7, 0.5), geom.Pt(0.5, 0.5+1e-7)})),
	}
	ctx := context.Background()
	accesses := func(st storage.BufferPoolStats) int { return st.PageReads + st.CacheHits }
	for name, region := range regions {
		oracle, _, err := query(memEng, BruteForce, region)
		if err != nil {
			t.Fatal(err)
		}
		if name == "no sites" && len(oracle) != 0 {
			t.Fatalf("%s: brute force finds %d sites", name, len(oracle))
		}
		for _, m := range []Method{Traditional, VoronoiBFS, VoronoiBFSStrict, BruteForce} {
			var tr obs.QueryTrace
			want, wantSt, err := memEng.QueryRegionSpec(ctx, region, QuerySpec{Method: m, Trace: &tr})
			if err != nil {
				t.Fatalf("memory, %s, %v: %v", name, m, err)
			}
			if !slices.Equal(slices.Sorted(slices.Values(want)), slices.Sorted(slices.Values(oracle))) {
				t.Fatalf("memory, %s, %v: %d ids, brute force %d", name, m, len(want), len(oracle))
			}
			if f := tr.Phase(obs.PhasePageFetch); f != 0 || mem.IOStats() != (storage.BufferPoolStats{}) {
				t.Errorf("memory, %s, %v: %v of page fetches, pool %+v", name, m, f, mem.IOStats())
			}

			before := accesses(store.IOStats())
			got, st, err := storeEng.QueryRegionSpec(ctx, region, QuerySpec{Method: m})
			if err != nil {
				t.Fatalf("store, %s, %v: %v", name, m, err)
			}
			twin.Store().DropCache()
			if _, _, err := twinEng.QueryRegionSpec(ctx, region, QuerySpec{Method: m}); err != nil {
				t.Fatalf("twin store, %s, %v: %v", name, m, err)
			}
			io := twin.IOStats()
			pages := io.PageReads
			if io.CacheHits != 0 || (pages == 0) != (st.RecordsLoaded == 0) || pages > st.RecordsLoaded {
				t.Errorf("twin store, %s, %v: pool %+v for %d records loaded", name, m, io, st.RecordsLoaded)
			}
			if n := accesses(store.IOStats()) - before; n < pages || n > st.RecordsLoaded {
				t.Errorf("store, %s, %v: %d pool accesses for %d records loaded on %d pages", name, m, n, st.RecordsLoaded, pages)
			}
			if !slices.Equal(got, want) || st != wantSt {
				t.Errorf("store, %s, %v: %d ids, %+v; memory: %d ids, %+v", name, m, len(got), st, len(want), wantSt)
			}

			dyn, _, err := query(dynEng, m, region)
			if err != nil {
				t.Fatalf("dynamic, %s, %v: %v", name, m, err)
			}
			for i := range dyn {
				dyn[i] -= delaunay.FirstSiteID
			}
			if !slices.Equal(slices.Sorted(slices.Values(dyn)), slices.Sorted(slices.Values(want))) {
				t.Errorf("dynamic, %s, %v: %d ids, memory %d", name, m, len(dyn), len(want))
			}
		}
	}
}

// siteFixtures are the point sets the data-layer and shell tests run over:
// random ones and the degenerate geometry internal/voronoi pins its own
// cells on — collinear sites (every cell a slab), a cocircular grid (every
// Delaunay quad a tie) and sites on the universe's boundary.
func siteFixtures() map[string][]geom.Point {
	collinear := make([]geom.Point, 40)
	for i := range collinear {
		collinear[i] = geom.Pt(float64(i+1)/41, 0.5)
	}
	var grid []geom.Point
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			grid = append(grid, geom.Pt(float64(i)/12+1.0/24, float64(j)/12+1.0/24))
		}
	}
	var hugging []geom.Point
	for i := 0; i <= 10; i++ {
		t := float64(i) / 10
		hugging = append(hugging, geom.Pt(t, 0), geom.Pt(t, 1))
		if i > 0 && i < 10 {
			hugging = append(hugging, geom.Pt(0, t), geom.Pt(1, t))
		}
	}
	hugging = append(hugging, geom.Pt(0.5, 0.5), geom.Pt(0.25, 0.7))
	return map[string][]geom.Point{
		"uniform":          workload.UniformPoints(rand.New(rand.NewSource(42)), 1500, unitBounds()),
		"clustered":        workload.ClusteredPoints(rand.New(rand.NewSource(7)), 1500, 8, 0.01, unitBounds()),
		"collinear":        collinear,
		"cocircular grid":  grid,
		"boundary-hugging": hugging,
	}
}

// checkLayerStructure asserts what every data layer is, whatever built it:
//   - its fence is exactly three sites outside the clip rectangle: ids
//     [last, last+3) on a static layer, whose user ids are [0, last), and
//     [0, 3) on a dynamic epoch, whose user ids follow them;
//   - Len, Each and Positions report the user sites and no fence site;
//   - its ring chunks are laid out as delaunay.Rings says: one per
//     ChunkSites ids, each with offsets that start at ChunkSites+1, never
//     decrease and end at the chunk's length;
//   - its adjacency is symmetric, with no self and no repeated entry, and
//     every ring, the fence sites' included, runs counterclockwise once
//     round its site: each two consecutive neighbours make a left turn about
//     it, but for the fence sites' outer face;
//   - every user site lies inside the clip rectangle, and in its own clipped
//     cell (closed containment);
//   - the shoelace areas of all cells, the fence sites' included, sum to the
//     clip rectangle's area within a relative 1e-9: the cells tile it,
//     leaving no neutral region.
func checkLayerStructure(t *testing.T, name string, d *MemoryData) {
	t.Helper()
	n := len(d.pts)
	fence := []int{d.last, d.last + 1, d.last + 2}
	switch {
	case d.first == 0 && d.last == n-delaunay.FirstSiteID:
	case d.first == delaunay.FirstSiteID && d.last == n:
		fence = []int{0, 1, 2}
	default:
		t.Fatalf("%s: user ids [%d, %d) of %d sites", name, d.first, d.last, n)
	}
	for _, f := range fence {
		if d.clip.ContainsPoint(d.pts[f]) {
			t.Fatalf("%s: fence site %d at %v lies in the clip %v", name, f, d.pts[f], d.clip)
		}
	}
	if d.Len() != d.last-d.first || len(d.Positions()) != d.last {
		t.Fatalf("%s: Len %d, %d positions, for user ids [%d, %d)", name, d.Len(), len(d.Positions()), d.first, d.last)
	}
	next := d.first
	d.Each(func(id int64, pos geom.Point) bool {
		if id != int64(next) || pos != d.pts[id] {
			t.Fatalf("%s: Each yields %d at %v after %d user sites from %d", name, id, pos, next-d.first, d.first)
		}
		next++
		return true
	})
	if next != d.last {
		t.Fatalf("%s: Each yields %d user sites, want %d", name, next-d.first, d.last-d.first)
	}

	if want := (n + delaunay.ChunkSites - 1) / delaunay.ChunkSites; len(d.rings) != want {
		t.Fatalf("%s: %d ring chunks for %d sites, want %d", name, len(d.rings), n, want)
	}
	for k, b := range d.rings {
		if len(b) <= delaunay.ChunkSites || b[0] != delaunay.ChunkSites+1 || int(b[delaunay.ChunkSites]) != len(b) {
			t.Fatalf("%s: ring chunk %d of %d entries does not hold its offsets then its rings", name, k, len(b))
		}
		for i := range delaunay.ChunkSites {
			if b[i] > b[i+1] {
				t.Fatalf("%s: ring chunk %d: offset %d is %d, offset %d is %d", name, k, i, b[i], i+1, b[i+1])
			}
		}
	}
	for id := range n {
		r := ring(d, id)
		for k, nb := range r {
			switch {
			case nb < 0 || int(nb) >= n:
				t.Fatalf("%s: ring of %d names %d of %d sites", name, id, nb, n)
			case int(nb) == id:
				t.Fatalf("%s: ring of %d names itself: %v", name, id, r)
			case slices.Contains(r[:k], nb):
				t.Fatalf("%s: ring of %d names %d twice: %v", name, id, nb, r)
			case !slices.Contains(ring(d, int(nb)), int32(id)):
				t.Fatalf("%s: %d is on the ring of %d, not the other way", name, nb, id)
			}
		}
		checkRingTurns(t, name, d, id, fence)
	}
	area := 0.0
	var cell, spare []geom.Point
	for id, p := range d.pts {
		cell, spare = voronoi.CellFromNeighbors(cell, spare, p, ring(d, id), d.pts, d.clip)
		if id >= d.first && id < d.last && (!d.clip.ContainsPoint(p) || !(geom.Polygon{Outer: cell}).ContainsPoint(p)) {
			t.Fatalf("%s: site %d at %v lies outside its cell %v or the clip %v", name, id, p, cell, d.clip)
		}
		area += geom.Ring(cell).Area()
	}
	if want := d.clip.Area(); math.Abs(area-want) > 1e-9*want {
		t.Fatalf("%s: the cells of %d sites cover %.15g of the clip's %.15g", name, n, area, want)
	}
}

// checkRingTurns fails t unless the ring of id runs counterclockwise once
// round it: its neighbours' angles about id ascend but for one wrap, and
// each two consecutive ones turn left about id — but for the one pair of a
// fence site's ring that bounds the outer face, the other two fence sites.
func checkRingTurns(t *testing.T, name string, d *MemoryData, id int, fence []int) {
	t.Helper()
	r, c := ring(d, id), d.pts[id]
	wraps, reflex := 0, 0
	for k, a := range r {
		b := r[(k+1)%len(r)]
		pa, pb := d.pts[a], d.pts[b]
		if math.Atan2(pb.Y-c.Y, pb.X-c.X) < math.Atan2(pa.Y-c.Y, pa.X-c.X) {
			wraps++
		}
		if geom.Orient(c, pa, pb) <= 0 {
			if !slices.Contains(fence, id) || !slices.Contains(fence, int(a)) || !slices.Contains(fence, int(b)) {
				t.Fatalf("%s: neighbours %d, %d of %d turn right about it: %v", name, a, b, id, r)
			}
			reflex++
		}
	}
	if slices.Contains(fence, id) && reflex != 1 {
		t.Fatalf("%s: fence site %d has %d reflex turns in its ring %v", name, id, reflex, r)
	}
	if wraps != 1 {
		t.Fatalf("%s: ring of %d winds %d times: %v", name, id, wraps, r)
	}
}

// checkEpochs inserts pts in order into a dynamic engine over the unit
// square, publishes after insert k when publish(k) says so and after the
// last, and checks the structure of every epoch published.
func checkEpochs(t *testing.T, name string, pts []geom.Point, publish func(k int) bool) {
	t.Helper()
	d := NewDynamicEngine(unitBounds())
	for k, p := range pts {
		if _, _, err := d.Insert(p); err != nil {
			t.Fatal(err)
		}
		if publish(k) || k == len(pts)-1 {
			checkLayerStructure(t, name, d.Snapshot().data)
		}
	}
}

// TestDataLayerStructure runs checkLayerStructure over every site fixture —
// random and degenerate — as a memory layer, as a store layer, and as the
// epochs of a dynamic engine that publishes after every few inserts.
func TestDataLayerStructure(t *testing.T) {
	for name, pts := range siteFixtures() {
		mem, err := NewMemoryData(pts, unitBounds())
		if err != nil {
			t.Fatal(err)
		}
		checkLayerStructure(t, name+", memory", mem)
		store, err := NewStoreData(pts, unitBounds(), StoreConfig{PageSize: 1024, PoolPages: 4})
		if err != nil {
			t.Fatal(err)
		}
		checkLayerStructure(t, name+", store", store)
		stride := max(3, len(pts)/50)
		checkEpochs(t, name+", dynamic", pts, func(k int) bool { return k%stride == stride-1 })
	}
}

// Site shapes of FuzzDataLayerStructure's decoder.
const (
	layerLattice   = iota // as decoded: collinear runs and cocircular quadruples everywhere
	layerCollinear        // every site on the square's diagonal
	layerBoundary         // every site moved onto the nearest edge of the square
	numLayerShapes
)

// decodeLayerSites spells at most 64 distinct sites in the unit square, a
// byte each after the shape byte data[0]: x in the high nibble, y in the low,
// on a 1/16 lattice whose last line is the square's far edge (nibble 15 is
// 1), so every coordinate is exact. A repeated site is dropped.
func decodeLayerSites(data []byte) []geom.Point {
	if len(data) < 2 {
		return nil
	}
	lattice := func(nibble byte) float64 {
		if nibble == 15 {
			return 1
		}
		return float64(nibble) / 16
	}
	shape := int(data[0]) % numLayerShapes
	var sites []geom.Point
	for _, b := range data[1:min(len(data), 65)] {
		x, y := lattice(b>>4), lattice(b&15)
		switch shape {
		case layerCollinear:
			y = x
		case layerBoundary:
			switch {
			case min(x, 1-x) <= min(y, 1-y) && x < 0.5:
				x = 0
			case min(x, 1-x) <= min(y, 1-y):
				x = 1
			case y < 0.5:
				y = 0
			default:
				y = 1
			}
		}
		if s := geom.Pt(x, y); !slices.Contains(sites, s) {
			sites = append(sites, s)
		}
	}
	return sites
}

// decodeLayerPolygon spells a polygon with a vertex per byte: x in the high
// nibble, y in the low, at the odd multiples of 1/32 — the midpoints of the
// sites' 1/16 lattice, where their bisectors and Voronoi vertices lie — so
// its edges run along bisectors and through cocircular vertices. ok is false
// when the bytes spell no simple polygon.
func decodeLayerPolygon(data []byte) (geom.Polygon, bool) {
	var ring []geom.Point
	for _, b := range data {
		ring = append(ring, geom.Pt(float64(2*(b>>4)+1)/32, float64(2*(b&15)+1)/32))
	}
	pg, err := geom.NewPolygon(ring)
	return pg, err == nil
}

// FuzzDataLayerStructure holds every data layer to checkLayerStructure on
// site sets biased toward the geometry Voronoi code gets wrong — collinear,
// cocircular and boundary sites: built statically, and inserted into a
// dynamic engine that publishes after insert k when bit k of the second
// argument (cycled) is set, after every insert when it is empty, and after
// the last. The second argument also spells a polygon (decodeLayerPolygon),
// whose walked shell on the static layer must be the ends of the Delaunay
// edges meeting it (checkShell), with every site the strict query places
// untested on its exact side (checkSides).
func FuzzDataLayerStructure(f *testing.F) {
	square := []byte{0x44, 0xc4, 0xcc, 0x4c, 0x88}
	lattice := []byte{0x00, 0x0f, 0xf0, 0xff, 0x37, 0x73, 0x55, 0x5a, 0xa5, 0xaa, 0x18, 0x81, 0xe2, 0x2e}
	f.Add(append([]byte{layerLattice}, square...), []byte(nil))
	f.Add(append([]byte{layerLattice}, lattice...), []byte{0x55})
	f.Add(append([]byte{layerCollinear}, lattice...), []byte(nil))
	f.Add(append([]byte{layerBoundary}, lattice...), []byte{0x0f})
	f.Add([]byte{layerLattice, 0x77}, []byte(nil)) // one site
	f.Add([]byte{layerBoundary, 0x00, 0xff}, []byte(nil))
	// A 4×4 block of the lattice under polygons whose edges lie along its
	// bisectors and pass corner to corner through its cocircular Voronoi
	// vertices.
	var block []byte
	for x := byte(5); x <= 8; x++ {
		for y := byte(5); y <= 8; y++ {
			block = append(block, x<<4|y)
		}
	}
	f.Add(append([]byte{layerLattice}, block...), []byte{0x55, 0x75, 0x77, 0x57})
	f.Add(append([]byte{layerLattice}, block...), []byte{0x55, 0x85, 0x58})
	f.Add(append([]byte{layerLattice}, lattice...), []byte{0x33, 0xb3, 0xbb, 0x3b})
	rng := rand.New(rand.NewSource(34))
	for n := 8; n <= 64; n *= 2 {
		data := make([]byte, n+1)
		rng.Read(data)
		f.Add(data, []byte{byte(n)})
	}
	f.Fuzz(func(t *testing.T, data, publishAfter []byte) {
		sites := decodeLayerSites(data)
		if len(sites) == 0 {
			return
		}
		mem, err := NewMemoryData(sites, unitBounds())
		if err != nil {
			t.Fatal(err)
		}
		checkLayerStructure(t, "static", mem)
		if pg, ok := decodeLayerPolygon(publishAfter); ok {
			checkShell(t, "static", mem, pg)
			checkSides(t, "static", mem, pg)
		}
		checkEpochs(t, "dynamic", sites, func(k int) bool {
			bit := k % max(8*len(publishAfter), 1)
			return len(publishAfter) == 0 || publishAfter[bit/8]>>(bit%8)&1 == 1
		})
	})
}
