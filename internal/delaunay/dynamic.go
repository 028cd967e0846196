package delaunay

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/robust"
)

// Dynamic is an incrementally updatable Delaunay triangulation: sites are
// inserted one at a time (Guibas & Stolfi's InsertSite, via Lischinski's
// formulation: locate walk, star connection, in-circle edge swapping), so
// the Voronoi topology used by the area query can track a growing dataset
// without full rebuilds.
//
// The locate walk starts at a caller-supplied neighbour: InsertSiteNear
// takes the id of a site close to the new one (an engine asks whatever
// spatial lookup it keeps) and walks from that site's ring, a
// handful of orientation tests. InsertSite, with nobody to ask, walks from
// the previous insertion — O(√n) tests per insert on unsorted arrival. The
// hint only chooses where the walk starts: the edges that result are the
// same from any start, and only the neighbour at which a site's ring begins
// its rotation can differ.
//
// The triangulation is bootstrapped from three "fence" sites forming a
// triangle that strictly contains the declared universe. Every user site
// therefore falls inside the current triangulation, which keeps the locate
// walk and hull handling trivial. Fence sites occupy ids 0..2; user sites
// get ids from FirstSiteID upward. Neighbor queries may report fence ids —
// callers that only care about user sites filter ids below FirstSiteID.
//
// A duplicate coordinate is found by the walk too: from any start, locate
// ends at an edge out of or into the site already there, so an insert of an
// existing coordinate returns that site's id and changes nothing. Bulk's
// inserts and a dynamic engine's rely on that alike; there is no coordinate
// table. The triangulation is all a Dynamic keeps: the site slice, one edge
// per site to enter its ring, and the quad-edge pool, whose quads hold four
// onext entries and one origin per primal half-edge and no flag.
//
// A Dynamic belongs to one writer. What readers need they get from two calls
// serialized with it, whose results later inserts leave alone: Points, a
// prefix of the append-only site slice, and Adjacency, ring chunks patched
// from the previous call's.
type Dynamic struct {
	pool     *edgePool
	pts      []geom.Point
	vertEdge []edgeID
	universe geom.Rect
	start    edgeID // where an unhinted walk enters: an edge of the last insertion
	// stale, dirty and chunk are Adjacency's scratch, kept between calls so
	// that a patch allocates only what it returns.
	stale, dirty, chunk []int32
}

// FirstSiteID is the id of the first user site in a Dynamic triangulation.
const FirstSiteID = 3

// ErrOutsideUniverse is returned by InsertSite for points outside the
// declared universe.
var ErrOutsideUniverse = errors.New("delaunay: point outside the declared universe")

// NewDynamic returns a dynamic triangulation accepting sites within
// universe. The fence triangle is several universe-diagonals away, so
// fence sites never shadow user sites in in-universe proximity queries (see
// the package's fence lemma).
func NewDynamic(universe geom.Rect) *Dynamic { return newDynamic(universe, 0) }

// newDynamic is NewDynamic with room for sites user sites.
func newDynamic(universe geom.Rect, sites int) *Dynamic {
	if universe.IsEmpty() {
		universe = geom.NewRect(0, 0, 1, 1)
	}
	w, h := universe.Width(), universe.Height()
	m := w + h
	if m == 0 {
		m = 1
	}
	c := universe.Center()
	// A triangle with a horizontal bottom edge below the universe and an
	// apex far above; CCW orientation.
	fence := [3]geom.Point{
		geom.Pt(c.X-3*m, c.Y-2*m),
		geom.Pt(c.X+3*m, c.Y-2*m),
		geom.Pt(c.X, c.Y+3*m),
	}
	n := sites + FirstSiteID
	d := &Dynamic{
		pool:     newEdgePool(max(3*n, 64)), // one quad per edge
		pts:      make([]geom.Point, 0, n),
		vertEdge: make([]edgeID, 0, n),
		universe: universe,
	}
	d.pts = append(d.pts, fence[:]...)
	// a: 0->1, b: 1->2, then close the counterclockwise triangle.
	p := d.pool
	a := p.makeEdge(0, 1)
	b := p.makeEdge(1, 2)
	p.splice(sym(a), b)
	cEdge := p.connect(b, a) // 2->0
	d.vertEdge = append(d.vertEdge, a, b, cEdge)
	d.start = a
	return d
}

// Points returns the coordinates of every site, indexed by id, fence sites
// first. Sites never move and InsertSite only appends, so the slice is the
// triangulation's own storage pinned to its current length: it stays valid
// and unchanged while the writer goes on inserting, from any goroutine, as
// long as the call itself is serialized with the writer.
func (d *Dynamic) Points() []geom.Point { return d.pts[:len(d.pts):len(d.pts)] }

// Adjacency returns the triangulation's Voronoi adjacency: the ring of every
// site, exactly the ring AppendNeighbors gives, starting where it starts. A
// reader may keep it while the writer inserts: no chunk of it is written
// again.
//
// prev is an earlier result of Adjacency on this triangulation, taken when
// it held prevSites sites, or nil (and 0). Every edge an insertion creates,
// deletes or re-anchors a ring at has both ends on the new site's final
// star: the star edges, the edges its swaps flip (both ends then on a
// triangle with the new site, whose edges no later swap of that insertion
// removes), the edge an on-edge site splits. An edge between a new site and
// an older one leaves only when a later insertion flips or splits it, which
// puts the older one on the later site's star. So the rings that can differ
// from prev's are those of the sites inserted since and of their current
// neighbors. The result copies prev's table and rebuilds only the chunks
// that hold one of those rings, each into an array of its own — walking
// those rings, copying the chunk's others from prev in runs — and every
// other chunk is prev's own. A chunk no table holds any more is garbage
// like any other, so sharing leaves nothing to compact. With no prev every
// ring is walked, O(sites); after k inserts a call copies n/ChunkSites
// headers and rebuilds O(k) chunks.
func (d *Dynamic) Adjacency(prev Rings, prevSites int) Rings {
	n, done := len(d.pts), prevSites
	if done == n {
		return prev
	}
	rings := make(Rings, chunks(n))
	copy(rings, prev)
	// The older sites on a new site's ring, sorted and each once.
	stale := d.stale[:0]
	if done > 0 {
		for v := done; v < n; v++ {
			d.chunk = d.AppendNeighbors(v, d.chunk[:0])
			for _, nb := range d.chunk {
				if int(nb) < done {
					stale = append(stale, nb)
				}
			}
		}
		slices.Sort(stale)
		stale = slices.Compact(stale)
	}
	// The chunks to rebuild, ascending: those of the stale sites, then every
	// chunk from the first new site's on.
	dirty := d.dirty[:0]
	for _, v := range stale {
		if k := v >> chunkShift; len(dirty) == 0 || dirty[len(dirty)-1] != k {
			dirty = append(dirty, k)
		}
	}
	for k := int32(done >> chunkShift); int(k) < len(rings); k++ {
		if len(dirty) == 0 || dirty[len(dirty)-1] < k {
			dirty = append(dirty, k)
		}
	}

	b, next := d.chunk, 0 // stale[next:] are in the chunks to come
	for _, k := range dirty {
		lo := int(k) << chunkShift
		var old []int32
		if int(k) < len(prev) {
			old = prev[k]
		}
		from := next
		for next < len(stale) && int(stale[next]) < lo+ChunkSites {
			next++
		}
		b = appendChunk(b[:0], lo, min(lo+ChunkSites, n), d.AppendNeighbors, old, done, stale[from:next])
		rings[k] = slices.Clone(b)
	}
	d.stale, d.dirty, d.chunk = stale, dirty, b
	return rings
}

// Universe returns the declared universe rectangle.
func (d *Dynamic) Universe() geom.Rect { return d.universe }

func (d *Dynamic) ccw(a, b, c int32) bool {
	pa, pb, pc := d.pts[a], d.pts[b], d.pts[c]
	return robust.Orient2D(pa.X, pa.Y, pb.X, pb.Y, pc.X, pc.Y) > 0
}

func (d *Dynamic) inCircle(a, b, c, x int32) bool {
	pa, pb, pc, px := d.pts[a], d.pts[b], d.pts[c], d.pts[x]
	return robust.InCircle(pa.X, pa.Y, pb.X, pb.Y, pc.X, pc.Y, px.X, px.Y) > 0
}

// rightOfPt reports whether x lies strictly right of directed edge e.
func (d *Dynamic) rightOfPt(x geom.Point, e edgeID) bool {
	o := d.pts[d.pool.org(e)]
	t := d.pts[d.pool.dst(e)]
	return robust.Orient2D(x.X, x.Y, t.X, t.Y, o.X, o.Y) > 0
}

// rightOfID reports whether site v lies strictly right of edge e.
func (d *Dynamic) rightOfID(v int32, e edgeID) bool {
	return d.ccw(v, d.pool.dst(e), d.pool.org(e))
}

// onEdge reports whether x lies on the closed segment of edge e.
func (d *Dynamic) onEdge(x geom.Point, e edgeID) bool {
	a := d.pts[d.pool.org(e)]
	b := d.pts[d.pool.dst(e)]
	if robust.Orient2D(a.X, a.Y, b.X, b.Y, x.X, x.Y) != 0 {
		return false
	}
	return geom.NewRect(a.X, a.Y, b.X, b.Y).ContainsPoint(x)
}

// locate walks from edge e to an edge on whose left face x lies
// (Guibas–Stolfi locate; any live edge will do as a start). x must be inside
// the fence triangle.
func (d *Dynamic) locate(x geom.Point, e edgeID) edgeID {
	p := d.pool
	for steps := 0; ; steps++ {
		if steps > 4*len(d.pts)+1000 {
			panic("delaunay: locate walk did not terminate") // impossible on valid input
		}
		switch {
		case x == d.pts[p.org(e)] || x == d.pts[p.dst(e)]:
			return e
		case d.rightOfPt(x, e):
			e = sym(e)
		case !d.rightOfPt(x, p.onext[e]):
			e = p.onext[e]
		case !d.rightOfPt(x, dprevEdge(p, e)):
			e = dprevEdge(p, e)
		default:
			return e
		}
	}
}

// dprevEdge returns Dprev(e): the next edge into dst(e), clockwise.
func dprevEdge(p *edgePool, e edgeID) edgeID {
	return invRot(p.onext[invRot(e)])
}

// lprevEdge returns Lprev(e) = Sym(Onext(e)).
func lprevEdge(p *edgePool, e edgeID) edgeID { return sym(p.onext[e]) }

// swap rotates edge e counterclockwise within its quadrilateral
// (Guibas–Stolfi Swap), replacing it with the opposite diagonal.
func (d *Dynamic) swap(e edgeID) {
	p := d.pool
	a := p.oprev(e)
	b := p.oprev(sym(e))
	// a shares org with e, b with sym(e): they survive the swap and can
	// anchor the vertex→edge table.
	d.vertEdge[p.org(e)] = a
	d.vertEdge[p.org(sym(e))] = b
	p.splice(e, a)
	p.splice(sym(e), b)
	p.splice(e, p.lnext(a))
	p.splice(sym(e), p.lnext(b))
	p.setOrg(e, p.dst(a))
	p.setOrg(sym(e), p.dst(b))
	d.vertEdge[p.org(e)] = e
	d.vertEdge[p.org(sym(e))] = sym(e)
}

// InsertSite adds a site and restores the Delaunay property. It returns
// the site's id; inserted reports whether a new site was created (false
// when the coordinate already exists, in which case the existing id is
// returned: the locate walk ends at it).
func (d *Dynamic) InsertSite(x geom.Point) (id int, inserted bool, err error) {
	return d.InsertSiteNear(x, -1)
}

// InsertSiteNear is InsertSite with the locate walk started at site near,
// which should be close to x — ideally its nearest site. Any value is safe:
// a far site costs a longer walk, and an id that names no site (negative, or
// not yet assigned) falls back to the previous insertion, as InsertSite does.
func (d *Dynamic) InsertSiteNear(x geom.Point, near int) (id int, inserted bool, err error) {
	if !d.universe.ContainsPoint(x) {
		return 0, false, fmt.Errorf("%w: %v not in %v", ErrOutsideUniverse, x, d.universe)
	}
	p := d.pool

	from := d.start
	if near >= 0 && near < len(d.vertEdge) {
		from = d.vertEdge[near]
	}
	e := d.locate(x, from)
	if x == d.pts[p.org(e)] {
		return int(p.org(e)), false, nil
	}
	if x == d.pts[p.dst(e)] {
		return int(p.dst(e)), false, nil
	}
	if d.onEdge(x, e) {
		e = p.oprev(e)
		d.deleteEdgeFixingVerts(p.onext[e])
	}

	newID := int32(len(d.pts))
	d.pts = append(d.pts, x)
	d.vertEdge = append(d.vertEdge, nilEdge)

	// Connect x to every vertex of the containing face.
	base := p.makeEdge(p.org(e), newID)
	d.vertEdge[newID] = sym(base)
	p.splice(base, e)
	startingEdge := base
	for {
		base = p.connect(e, sym(base))
		e = p.oprev(base)
		if p.lnext(e) == startingEdge {
			break
		}
	}

	// Examine suspect edges, swapping until locally Delaunay everywhere.
	for {
		t := p.oprev(e)
		if d.rightOfID(p.dst(t), e) &&
			d.inCircle(p.org(e), p.dst(t), p.dst(e), newID) {
			d.swap(e)
			e = p.oprev(e)
		} else if p.onext[e] == startingEdge {
			d.start = startingEdge
			return int(newID), true, nil
		} else {
			e = lprevEdge(p, p.onext[e])
		}
	}
}

// deleteEdgeFixingVerts removes e, repointing vertex→edge entries that
// reference either direction of it.
func (d *Dynamic) deleteEdgeFixingVerts(e edgeID) {
	p := d.pool
	for _, side := range [2]edgeID{e, sym(e)} {
		v := p.org(side)
		if d.vertEdge[v] == side {
			if next := p.onext[side]; next != side {
				d.vertEdge[v] = next
			} else {
				d.vertEdge[v] = nilEdge
			}
		}
	}
	p.deleteEdge(e)
}

// AppendNeighbors appends the Delaunay neighbors of site id to buf, in
// rotational order, and returns the extended slice; fence sites may be
// among them. With a buffer of sufficient capacity the ring walk allocates
// nothing.
func (d *Dynamic) AppendNeighbors(id int, buf []int32) []int32 {
	start := d.vertEdge[id]
	if start == nilEdge {
		return buf
	}
	p := d.pool
	e := start
	for {
		buf = append(buf, p.dst(e))
		e = p.onext[e]
		if e == start {
			return buf
		}
	}
}

// Validate checks neighbor symmetry, vertex→edge table consistency, that
// the rings hold both directions of every quad off the free list, and the
// local Delaunay property of every internal edge. Intended for tests.
func (d *Dynamic) Validate() error {
	p := d.pool
	halfEdges := 0
	for v := range d.pts {
		start := d.vertEdge[v]
		if start != nilEdge && int(p.org(start)) != v {
			return fmt.Errorf("delaunay: vertEdge[%d] has org %d", v, p.org(start))
		}
		for _, nb := range d.AppendNeighbors(v, nil) {
			if !slices.Contains(d.AppendNeighbors(int(nb), nil), int32(v)) {
				return fmt.Errorf("delaunay: dynamic adjacency not symmetric at %d", v)
			}
		}
		for e := start; e != nilEdge; {
			halfEdges++
			a, b := p.org(e), p.dst(e)
			c := p.dst(p.lnext(e)) // apex of the left face
			x := p.dst(p.oprev(e)) // apex of the right face
			// Each edge once, from its lower end, when both its faces are
			// counterclockwise triangles (not the outer face, not a boundary
			// configuration).
			if a < b && c != x && p.lnext(p.lnext(p.lnext(e))) == e &&
				d.ccw(a, b, c) && d.ccw(b, a, x) && d.inCircle(a, b, c, x) {
				return fmt.Errorf("delaunay: edge %d-%d not locally Delaunay (apexes %d, %d)", a, b, c, x)
			}
			if e = p.onext[e]; e == start {
				break
			}
		}
	}
	if live := 2 * (len(p.onext)/4 - len(p.free)); halfEdges != live {
		return fmt.Errorf("delaunay: rings hold %d half-edges, the pool %d", halfEdges, live)
	}
	return nil
}
