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
// A Dynamic belongs to one writer. What readers need they get from two calls
// serialized with it, whose results later inserts leave alone: Points, a
// prefix of the append-only site slice, and Adjacency, CSR rings patched
// from the previous call's.
type Dynamic struct {
	pool     *edgePool
	pts      []geom.Point
	vertEdge []edgeID
	universe geom.Rect
	start    edgeID // where an unhinted walk enters: an edge of the last insertion
	// byCoord answers SiteAt, and a duplicate insert, without a walk. Bulk's
	// triangulation keeps none: its inserts find a duplicate by the walk,
	// which ends at the site already there.
	byCoord map[geom.Point]int32
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
func NewDynamic(universe geom.Rect) *Dynamic {
	d := newDynamic(universe, 0)
	d.byCoord = make(map[geom.Point]int32, 64)
	for id, p := range d.pts {
		d.byCoord[p] = int32(id)
	}
	return d
}

// newDynamic is NewDynamic with room for sites user sites and no coordinate
// table.
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

// NumSites returns the number of sites including the three fence sites.
func (d *Dynamic) NumSites() int { return len(d.pts) }

// Point returns the coordinates of site id.
func (d *Dynamic) Point(id int) geom.Point { return d.pts[id] }

// Points returns the coordinates of every site, indexed by id, fence sites
// first. Sites never move and InsertSite only appends, so the slice is the
// triangulation's own storage pinned to its current length: it stays valid
// and unchanged while the writer goes on inserting, from any goroutine, as
// long as the call itself is serialized with the writer.
func (d *Dynamic) Points() []geom.Point { return d.pts[:len(d.pts):len(d.pts)] }

// Adjacency returns the triangulation's Voronoi adjacency in CSR form: the
// neighbors of site v are nbrs[off[v]:off[v+1]], exactly the ring
// AppendNeighbors(v) gives, starting where it starts. The arrays are new and
// shared with nothing, so a reader may keep them while the writer inserts.
//
// prevOff and prevNbrs are an earlier result of Adjacency on this
// triangulation, or nil. Every edge an insertion creates, deletes or
// re-anchors a ring at has both ends on the new site's final star: the star
// edges, the edges its swaps flip (both ends then on a triangle with the new
// site, whose edges no later swap of that insertion removes), the edge an
// on-edge site splits. An edge between a new site and an older one leaves
// only when a later insertion flips or splits it, which puts the older one
// on the later site's star. So the rings that can differ from prev's are
// those of the sites inserted since and of their current neighbors: those
// are walked, and every other ring is copied from prev in runs between
// them. With no prev every ring is walked, O(sites); after k inserts a call
// walks O(k) rings and copies the rest at memcpy speed.
func (d *Dynamic) Adjacency(prevOff, prevNbrs []int32) (off, nbrs []int32) {
	n, done := len(d.pts), max(len(prevOff)-1, 0)
	off = make([]int32, n+1)
	// The new sites' rings, walked first to find the older sites on them.
	// Until they are appended after the older rings, off[v+1] holds the end
	// of v's ring in fresh.
	fresh := make([]int32, 0, 6*(n-done))
	var stale []int32 // older sites on a new site's ring; may repeat
	for v := done; v < n; v++ {
		from := len(fresh)
		fresh = d.AppendNeighbors(v, fresh)
		for _, nb := range fresh[from:] {
			if int(nb) < done {
				stale = append(stale, nb)
			}
		}
		off[v+1] = int32(len(fresh))
	}
	if done == 0 {
		return off, fresh
	}
	slices.Sort(stale)
	stale = slices.Compact(stale)

	// A triangulation whose outer face is the fence triangle has 3n − 6
	// edges, so its rings hold 6n − 12 entries in all.
	nbrs = make([]int32, 0, 6*n-12)
	v := 0
	for _, w := range append(stale, int32(done)) {
		// The rings of v..w-1 are prev's: one copy, offsets shifted by one
		// constant.
		shift := int32(len(nbrs)) - prevOff[v]
		nbrs = append(nbrs, prevNbrs[prevOff[v]:prevOff[w]]...)
		for u := v + 1; u <= int(w); u++ {
			off[u] = prevOff[u] + shift
		}
		if int(w) == done {
			break
		}
		nbrs = d.AppendNeighbors(int(w), nbrs)
		off[w+1] = int32(len(nbrs))
		v = int(w) + 1
	}
	base := int32(len(nbrs))
	nbrs = append(nbrs, fresh...)
	for u := done + 1; u <= n; u++ {
		off[u] += base
	}
	return off, nbrs
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
	o := d.pts[d.pool.org[e]]
	t := d.pts[d.pool.dst(e)]
	return robust.Orient2D(x.X, x.Y, t.X, t.Y, o.X, o.Y) > 0
}

// rightOfID reports whether site v lies strictly right of edge e.
func (d *Dynamic) rightOfID(v int32, e edgeID) bool {
	return d.ccw(v, d.pool.dst(e), d.pool.org[e])
}

// onEdge reports whether x lies on the closed segment of edge e.
func (d *Dynamic) onEdge(x geom.Point, e edgeID) bool {
	a := d.pts[d.pool.org[e]]
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
		case x == d.pts[p.org[e]] || x == d.pts[p.dst(e)]:
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
	d.vertEdge[p.org[e]] = a
	d.vertEdge[p.org[sym(e)]] = b
	p.splice(e, a)
	p.splice(sym(e), b)
	p.splice(e, p.lnext(a))
	p.splice(sym(e), p.lnext(b))
	p.org[e] = p.dst(a)
	p.org[sym(e)] = p.dst(b)
	d.vertEdge[p.org[e]] = e
	d.vertEdge[p.org[sym(e)]] = sym(e)
}

// InsertSite adds a site and restores the Delaunay property. It returns
// the site's id; inserted reports whether a new site was created (false
// when the coordinate already exists, in which case the existing id is
// returned).
func (d *Dynamic) InsertSite(x geom.Point) (id int, inserted bool, err error) {
	return d.InsertSiteNear(x, -1)
}

// SiteAt returns the id of the site at exactly x, if there is one. A caller
// about to look up a hint for InsertSiteNear asks this first: a duplicate
// needs no walk, so it needs no hint. It belongs to the writer, as InsertSite
// does.
func (d *Dynamic) SiteAt(x geom.Point) (id int, ok bool) {
	existing, ok := d.byCoord[x]
	return int(existing), ok
}

// InsertSiteNear is InsertSite with the locate walk started at site near,
// which should be close to x — ideally its nearest site. Any value is safe:
// a far site costs a longer walk, and an id that names no site (negative, or
// not yet assigned) falls back to the previous insertion, as InsertSite does.
func (d *Dynamic) InsertSiteNear(x geom.Point, near int) (id int, inserted bool, err error) {
	if !d.universe.ContainsPoint(x) {
		return 0, false, fmt.Errorf("%w: %v not in %v", ErrOutsideUniverse, x, d.universe)
	}
	if existing, dup := d.byCoord[x]; dup {
		return int(existing), false, nil
	}
	p := d.pool

	from := d.start
	if near >= 0 && near < len(d.vertEdge) {
		from = d.vertEdge[near]
	}
	e := d.locate(x, from)
	if x == d.pts[p.org[e]] {
		return int(p.org[e]), false, nil
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
	if d.byCoord != nil {
		d.byCoord[x] = newID
	}
	d.vertEdge = append(d.vertEdge, nilEdge)

	// Connect x to every vertex of the containing face.
	base := p.makeEdge(p.org[e], newID)
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
			d.inCircle(p.org[e], p.dst(t), p.dst(e), newID) {
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
		v := p.org[side]
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

// Validate checks neighbor symmetry, vertex→edge table consistency and the
// local Delaunay property of every internal edge. Intended for tests.
func (d *Dynamic) Validate() error {
	p := d.pool
	for v := range d.pts {
		if start := d.vertEdge[v]; start != nilEdge && int(p.org[start]) != v {
			return fmt.Errorf("delaunay: vertEdge[%d] has org %d", v, p.org[start])
		}
		for _, nb := range d.AppendNeighbors(v, nil) {
			if !slices.Contains(d.AppendNeighbors(int(nb), nil), int32(v)) {
				return fmt.Errorf("delaunay: dynamic adjacency not symmetric at %d", v)
			}
		}
	}
	for q, alive := range p.alive {
		if !alive {
			continue
		}
		e := edgeID(q * 4)
		a, b := p.org[e], p.dst(e)
		c := p.dst(p.lnext(e)) // apex of the left face
		x := p.dst(p.oprev(e)) // apex of the right face
		if c == x {
			continue
		}
		if p.lnext(p.lnext(p.lnext(e))) != e {
			continue // left face is not a triangle (outer face)
		}
		if !d.ccw(a, b, c) || !d.ccw(b, a, x) {
			continue // boundary configuration
		}
		if d.inCircle(a, b, c, x) {
			return fmt.Errorf("delaunay: edge %d-%d not locally Delaunay (apexes %d, %d)", a, b, c, x)
		}
	}
	return nil
}
