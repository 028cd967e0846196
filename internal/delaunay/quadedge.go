package delaunay

// Quad-edge storage (Guibas & Stolfi 1985), array-backed.
//
// Edges are identified by int32 ids. Four directed edge slots make up a
// quad: id&^3 is the quad base, id&3 the rotation. Slot 0 and slot 2 are the
// two directions of the primal edge; slots 1 and 3 are the dual edge (used
// only to make Splice work, no data stored for them). So a quad holds four
// onext entries and two origins, one per primal half-edge, read through org
// and written through setOrg; nothing marks a quad live or free beyond the
// free list.

type edgeID = int32

const nilEdge edgeID = -1

// edgePool holds the quad-edge arrays. The zero value is ready to use.
type edgePool struct {
	onext []edgeID // next edge CCW around origin, indexed by edge id
	orgs  []int32  // origin vertex of primal edge e at e>>1: two per quad
	free  []edgeID // freed quad bases for reuse
}

func newEdgePool(hint int) *edgePool {
	return &edgePool{
		onext: make([]edgeID, 0, 4*hint),
		orgs:  make([]int32, 0, 2*hint),
	}
}

func rot(e edgeID) edgeID    { return e&^3 | (e+1)&3 }
func sym(e edgeID) edgeID    { return e ^ 2 }
func invRot(e edgeID) edgeID { return e&^3 | (e+3)&3 }

func (p *edgePool) lnext(e edgeID) edgeID { return rot(p.onext[invRot(e)]) }
func (p *edgePool) oprev(e edgeID) edgeID { return rot(p.onext[rot(e)]) }

// org returns the origin of primal edge e (slot 0 or 2 of its quad).
func (p *edgePool) org(e edgeID) int32 { return p.orgs[e>>1] }

// setOrg makes v the origin of primal edge e.
func (p *edgePool) setOrg(e edgeID, v int32) { p.orgs[e>>1] = v }

func (p *edgePool) dst(e edgeID) int32 { return p.org(sym(e)) }

// makeEdge allocates an isolated primal edge (its own onext) together with
// its dual loop, and returns the primal slot-0 edge id.
func (p *edgePool) makeEdge(orgV, dstV int32) edgeID {
	var e edgeID
	if n := len(p.free); n > 0 {
		e = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		e = edgeID(len(p.onext))
		p.onext = append(p.onext, 0, 0, 0, 0)
		p.orgs = append(p.orgs, 0, 0)
	}
	p.onext[e] = e
	p.onext[e+1] = e + 3
	p.onext[e+2] = e + 2
	p.onext[e+3] = e + 1
	p.setOrg(e, orgV)
	p.setOrg(sym(e), dstV)
	return e
}

// splice is the quad-edge topology operator: it either joins or splits the
// two origin rings of a and b (and correspondingly the dual face rings).
func (p *edgePool) splice(a, b edgeID) {
	alpha := rot(p.onext[a])
	beta := rot(p.onext[b])
	p.onext[a], p.onext[b] = p.onext[b], p.onext[a]
	p.onext[alpha], p.onext[beta] = p.onext[beta], p.onext[alpha]
}

// connect adds a new edge from dst(a) to org(b) so that the three edges
// share the same left face.
func (p *edgePool) connect(a, b edgeID) edgeID {
	e := p.makeEdge(p.dst(a), p.org(b))
	p.splice(e, p.lnext(a))
	p.splice(sym(e), b)
	return e
}

// deleteEdge detaches e from the structure and recycles its quad.
func (p *edgePool) deleteEdge(e edgeID) {
	p.splice(e, p.oprev(e))
	p.splice(sym(e), p.oprev(sym(e)))
	p.free = append(p.free, e&^3)
}
