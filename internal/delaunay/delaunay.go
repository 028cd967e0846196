// Package delaunay builds the Delaunay triangulation of a planar point set
// and answers the topology queries the Voronoi-based area query needs:
// the Delaunay (equivalently, Voronoi) neighbors of every site, as
// per-site lists or as the CSR arrays an engine keeps.
//
// Construction is the Guibas–Stolfi divide-and-conquer algorithm over a
// quad-edge mesh: O(n log n) worst case, no super-triangle artifacts, and —
// because every orientation and in-circle decision goes through package
// robust — exact behavior on degenerate inputs (collinear runs, cocircular
// quadruples, duplicate points).
//
// One rule keeps exactness cheap: the merge never asks robust about a
// triangle's own corner. When a candidate's successor wraps round to the base
// edge, the fourth in-circle argument is one of the first three, the
// determinant is identically zero, no floating-point filter can certify that,
// and robust would settle it in big.Rat — some forty allocations to learn
// "not inside". Triangulation.inCircle answers that case by vertex id; only
// genuinely cocircular quadruples of distinct sites reach the exact path.
package delaunay

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/robust"
)

// ErrNoPoints is returned by Build for an empty input.
var ErrNoPoints = errors.New("delaunay: no input points")

// Triangulation is an immutable Delaunay triangulation of a point set.
// All methods are safe for concurrent readers.
type Triangulation struct {
	pts  []geom.Point
	pool *edgePool

	// canon maps every input index to the canonical index of its
	// coordinates (first occurrence); distinct points map to themselves.
	canon []int32
	// distinct lists the canonical indices, sorted lexicographically.
	distinct []int32

	// CSR adjacency over canonical vertices: the Delaunay neighbors of
	// vertex v are neighbors[nbrOff[v]:nbrOff[v+1]], in counterclockwise
	// rotational order around v.
	nbrOff    []int32
	neighbors []int32

	// vertEdge holds one primal edge whose origin is v, or nilEdge.
	vertEdge []edgeID
}

// Build constructs the Delaunay triangulation of pts. Duplicate coordinates
// are merged: the duplicate's index behaves exactly like the first
// occurrence. The input slice is not retained or modified.
func Build(pts []geom.Point) (*Triangulation, error) {
	n := len(pts)
	if n == 0 {
		return nil, ErrNoPoints
	}
	t := &Triangulation{
		pts:  append([]geom.Point(nil), pts...),
		pool: newEdgePool(3*n + 8),
	}
	t.dedupe()
	if len(t.distinct) >= 2 {
		t.triangulate(t.distinct)
	}
	t.buildAdjacency()
	return t, nil
}

// NumSites returns the number of distinct sites.
func (t *Triangulation) NumSites() int { return len(t.distinct) }

// Point returns the coordinates of input index i.
func (t *Triangulation) Point(i int) geom.Point { return t.pts[i] }

// dedupe fills canon and distinct.
func (t *Triangulation) dedupe() {
	n := len(t.pts)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := t.pts[order[a]], t.pts[order[b]]
		if pa.X != pb.X {
			return pa.X < pb.X
		}
		if pa.Y != pb.Y {
			return pa.Y < pb.Y
		}
		return order[a] < order[b] // stable canonical choice: lowest index
	})
	t.canon = make([]int32, n)
	t.distinct = t.distinct[:0]
	for i := 0; i < n; {
		j := i
		for j < n && t.pts[order[j]].Equal(t.pts[order[i]]) {
			j++
		}
		// order[i:j] share coordinates; order[i] has the lowest index among
		// them thanks to the index tiebreak.
		c := order[i]
		for k := i; k < j; k++ {
			t.canon[order[k]] = c
		}
		t.distinct = append(t.distinct, c)
		i = j
	}
}

// --- geometric predicates over vertex ids ---

func (t *Triangulation) ccw(a, b, c int32) bool {
	pa, pb, pc := t.pts[a], t.pts[b], t.pts[c]
	return robust.Orient2D(pa.X, pa.Y, pb.X, pb.Y, pc.X, pc.Y) > 0
}

// inCircle reports whether d lies strictly inside the circle through a, b, c
// (counterclockwise). A corner of the triangle is on its circumcircle, never
// inside: robust.InCircle says so too (0), but only after its exact fallback
// (see the package comment), so that case is answered here. Vertex ids stand
// for distinct coordinates — triangulate sees canonical ids only.
func (t *Triangulation) inCircle(a, b, c, d int32) bool {
	if d == a || d == b || d == c {
		return false
	}
	pa, pb, pc, pd := t.pts[a], t.pts[b], t.pts[c], t.pts[d]
	return robust.InCircle(pa.X, pa.Y, pb.X, pb.Y, pc.X, pc.Y, pd.X, pd.Y) > 0
}

func (t *Triangulation) rightOf(p int32, e edgeID) bool {
	return t.ccw(p, t.pool.dst(e), t.pool.org[e])
}

func (t *Triangulation) leftOf(p int32, e edgeID) bool {
	return t.ccw(p, t.pool.org[e], t.pool.dst(e))
}

// triangulate runs Guibas–Stolfi divide and conquer over s, a
// lexicographically sorted slice of at least 2 distinct vertex ids. It
// returns (le, re): the counterclockwise hull edge out of the leftmost
// vertex and the clockwise hull edge out of the rightmost vertex.
func (t *Triangulation) triangulate(s []int32) (le, re edgeID) {
	p := t.pool
	switch len(s) {
	case 2:
		a := p.makeEdge(s[0], s[1])
		return a, sym(a)
	case 3:
		a := p.makeEdge(s[0], s[1])
		b := p.makeEdge(s[1], s[2])
		p.splice(sym(a), b)
		switch {
		case t.ccw(s[0], s[1], s[2]):
			p.connect(b, a)
			return a, sym(b)
		case t.ccw(s[0], s[2], s[1]):
			c := p.connect(b, a)
			return sym(c), c
		default: // collinear
			return a, sym(b)
		}
	}

	mid := len(s) / 2
	ldo, ldi := t.triangulate(s[:mid])
	rdi, rdo := t.triangulate(s[mid:])

	// Find the lower common tangent of the two half-hulls.
	for {
		if t.leftOf(p.org[rdi], ldi) {
			ldi = p.lnext(ldi)
		} else if t.rightOf(p.org[ldi], rdi) {
			rdi = p.rprev(rdi)
		} else {
			break
		}
	}
	basel := p.connect(sym(rdi), ldi)
	if p.org[ldi] == p.org[ldo] {
		ldo = sym(basel)
	}
	if p.org[rdi] == p.org[rdo] {
		rdo = basel
	}

	// Merge upward ("rising bubble").
	valid := func(e edgeID) bool { return t.rightOf(p.dst(e), basel) }
	for {
		lcand := p.onext[sym(basel)]
		if valid(lcand) {
			for t.inCircle(p.dst(basel), p.org[basel], p.dst(lcand), p.dst(p.onext[lcand])) {
				next := p.onext[lcand]
				p.deleteEdge(lcand)
				lcand = next
			}
		}
		rcand := p.oprev(basel)
		if valid(rcand) {
			for t.inCircle(p.dst(basel), p.org[basel], p.dst(rcand), p.dst(p.oprev(rcand))) {
				next := p.oprev(rcand)
				p.deleteEdge(rcand)
				rcand = next
			}
		}
		lvalid, rvalid := valid(lcand), valid(rcand)
		if !lvalid && !rvalid {
			break // tangent reached: merge complete
		}
		if !lvalid || (rvalid && t.inCircle(p.dst(lcand), p.org[lcand], p.org[rcand], p.dst(rcand))) {
			basel = p.connect(rcand, sym(basel))
		} else {
			basel = p.connect(sym(basel), sym(lcand))
		}
	}
	return ldo, rdo
}

// buildAdjacency fills vertEdge and the CSR neighbor arrays.
func (t *Triangulation) buildAdjacency() {
	n := len(t.pts)
	p := t.pool
	t.vertEdge = make([]edgeID, n)
	for i := range t.vertEdge {
		t.vertEdge[i] = nilEdge
	}
	degree := make([]int32, n)
	for q := 0; q < p.numQuads(); q++ {
		if !p.quadAlive(q) {
			continue
		}
		for _, e := range [2]edgeID{edgeID(q * 4), edgeID(q*4 + 2)} {
			o := p.org[e]
			t.vertEdge[o] = e
			degree[o]++
		}
	}
	t.nbrOff = make([]int32, n+1)
	for i := 0; i < n; i++ {
		t.nbrOff[i+1] = t.nbrOff[i] + degree[i]
	}
	t.neighbors = make([]int32, t.nbrOff[n])
	fill := make([]int32, n)
	for v := 0; v < n; v++ {
		start := t.vertEdge[v]
		if start == nilEdge {
			continue
		}
		e := start
		for {
			t.neighbors[t.nbrOff[v]+fill[v]] = p.dst(e)
			fill[v]++
			e = p.onext[e]
			if e == start {
				break
			}
		}
	}
}

// Neighbors returns the Delaunay (equivalently Voronoi) neighbors of the
// site with input index i, in counterclockwise rotational order. The
// returned slice aliases internal storage and must not be modified.
func (t *Triangulation) Neighbors(i int) []int32 {
	v := t.canon[i]
	return t.neighbors[t.nbrOff[v]:t.nbrOff[v+1]]
}

// Adjacency returns the CSR neighbor arrays themselves: the neighbors of
// canonical vertex v are neighbors[offsets[v]:offsets[v+1]], in the order
// Neighbors reports them. A caller that needs only the adjacency keeps
// these two slices and lets the triangulation go. They alias internal
// storage and must not be modified.
func (t *Triangulation) Adjacency() (offsets, neighbors []int32) {
	return t.nbrOff, t.neighbors
}

// Triangle is a triangle of the triangulation, vertices in counterclockwise
// order, identified by input indices.
type Triangle [3]int32

// Triangles enumerates every triangle exactly once. The outer face is
// excluded. Allocation is proportional to the output.
func (t *Triangulation) Triangles() []Triangle {
	p := t.pool
	var out []Triangle
	for q := 0; q < p.numQuads(); q++ {
		if !p.quadAlive(q) {
			continue
		}
		for _, e := range [2]edgeID{edgeID(q * 4), edgeID(q*4 + 2)} {
			// Emit the left face of e if it is a CCW 3-cycle and e is the
			// cycle's smallest edge id (dedup).
			e2 := p.lnext(e)
			e3 := p.lnext(e2)
			if p.lnext(e3) != e || e2 < e || e3 < e {
				continue
			}
			a, b, c := p.org[e], p.org[e2], p.org[e3]
			if t.ccw(a, b, c) {
				out = append(out, Triangle{a, b, c})
			}
		}
	}
	return out
}

// Validate checks structural invariants: neighbor symmetry, CCW triangles,
// and (expensively) the empty-circumcircle property of every triangle
// against every site when exhaustive is true. Intended for tests.
func (t *Triangulation) Validate(exhaustive bool) error {
	// Neighbor symmetry.
	for _, v := range t.distinct {
		for _, nb := range t.neighbors[t.nbrOff[v]:t.nbrOff[v+1]] {
			if !t.hasNeighbor(nb, v) {
				return fmt.Errorf("delaunay: adjacency not symmetric: %d->%d", v, nb)
			}
		}
	}
	tris := t.Triangles()
	for _, tri := range tris {
		if !t.ccw(tri[0], tri[1], tri[2]) {
			return fmt.Errorf("delaunay: triangle %v not CCW", tri)
		}
	}
	if exhaustive {
		for _, tri := range tris {
			for _, v := range t.distinct {
				if v == tri[0] || v == tri[1] || v == tri[2] {
					continue
				}
				if t.inCircle(tri[0], tri[1], tri[2], v) {
					return fmt.Errorf("delaunay: site %d inside circumcircle of %v", v, tri)
				}
			}
		}
	}
	return nil
}

func (t *Triangulation) hasNeighbor(v, w int32) bool {
	for _, nb := range t.neighbors[t.nbrOff[v]:t.nbrOff[v+1]] {
		if nb == w {
			return true
		}
	}
	return false
}
