package core

import (
	"context"
	"errors"
	"slices"
	"time"

	"repro/internal/delaunay"
	"repro/internal/geom"
)

// The strict rule on a polygon R walks each ring of ∂R straight through the
// Delaunay triangles (Devillers, Pion and Teillaud, "Walking in a
// triangulation") and stamps both ends of every Delaunay edge the ring
// meets: the set B. Each end records, per crossing, the side of the ring
// segment it lies on, read as inside or outside R: each ring's inside side
// is one exact orientation at its lowest vertex, and a hole's is the
// opposite of its winding. Then:
//
//  1. Classify B: a site whose records all agree lies on their side, with
//     no record load and no test. A site whose records disagree, a site on
//     ∂R (orientation 0) and both ends of an edge met at a ring vertex are
//     validated. A fence site lies outside every region and is dropped.
//  2. Flood: from the sites of B inside R, flood the unstamped Delaunay
//     neighbours and emit them with no test and no record load.
//
// Why it is exact:
//   - An unstamped site has no edge that meets ∂R, so it lies on the side
//     of each of its neighbours: the flood steps only from inside to inside.
//   - Consecutive crossings of one edge alternate sides, so an edge that ∂R
//     crosses more than once always shows up as a disagreement at both ends.
//     A site whose records agree is therefore on the side of the crossing
//     nearest it along any of its edges, which is its own.
//   - The Delaunay graph is connected, so an inside site reaches B through
//     unstamped sites, all inside, and the first site of B on that path is
//     inside too. (A ring that meets no edge lies in one triangle.)
//   - Stamping an extra site is always safe: it is classified or tested.
//
// The walk takes one predicate, Orient. It never leaves the triangulation:
// every layer is fenced by a triangle strictly containing its universe, and
// every flavor refuses a region outside it.

// walkCounts is the walk's deterministic cost: the size of B (shell), the
// triangles and sites it stepped through, and the orientations it took.
type walkCounts struct {
	shell, steps, orients int
}

// Side records of the sites of B, kept beside them in the queue's prefix.
const (
	sideIn    uint8 = 1 << iota // a crossing put the site inside R
	sideOut                     // a crossing put it outside
	sideCheck                   // it lies on ∂R, or an edge of it meets a ring vertex
)

// errWalkEscaped reports a ring that crosses a fence edge: a region outside
// the layer's universe, which every flavor refuses before it queries.
var errWalkEscaped = errors.New("core: the polygon leaves the data layer's universe")

// eachShell is VoronoiBFSStrict on a polygon: walk, classify, flood. The
// polygon is valid (pp.Err() is nil): every flavor refuses one that is not.
// Locating each ring's first vertex is the query's seed lookup.
func (e *Engine) eachShell(ctx context.Context, pp *geom.PreparedPolygon, s *queryScratch) (Stats, error) {
	d := e.data
	if _, err := d.walkShell(ctx, pp.Polygon(), s); err != nil {
		return Stats{}, err
	}
	return d.floodShell(ctx, pp, s)
}

// insideLeft is +1 when ring r, walked in vertex order, runs
// counter-clockwise and −1 when it runs clockwise: one exact orientation at
// its lowest vertex, a strict turn on a simple ring.
//
//vaq:noalloc
func insideLeft(r geom.Ring) geom.Orientation {
	lo := 0
	for i, p := range r {
		if p.Y < r[lo].Y || p.Y == r[lo].Y && p.X < r[lo].X {
			lo = i
		}
	}
	return geom.Orient(r[(lo+len(r)-1)%len(r)], r[lo], r[(lo+1)%len(r)])
}

// floodShell classifies or validates the shell s.queue holds, by its side
// records in s.sides, then floods from its sites inside R.
//
//vaq:noalloc
func (d *MemoryData) floodShell(ctx context.Context, pp *geom.PreparedPolygon, s *queryScratch) (stats Stats, err error) {
	pts, rings := d.pts, d.rings
	shell := len(s.queue)
	for i := 0; i < shell; i++ {
		if i%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return stats, err
			}
		}
		p := s.queue[i]
		pos := pts[p]
		switch {
		case int(p) < d.first || int(p) >= d.last, s.sides[i] == sideOut:
			continue // outside R; a fence site lies outside the universe
		case s.sides[i] != sideIn:
			if pos, err = s.load(d, p); err != nil {
				return stats, err
			}
			stats.RecordsLoaded++
			stats.Candidates++
			if !pp.ContainsPoint(pos) {
				stats.RedundantValidations++
				continue
			}
		}
		if !s.out.add(int64(p), pos) {
			return stats, nil
		}
		s.queue = append(s.queue, p)
	}
	// The queue now holds the shell, then its sites inside R, all emitted;
	// everything the flood appends after them is emitted untested.
	untested := len(s.queue)
	for head := shell; head < len(s.queue); head++ {
		if head%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return stats, err
			}
		}
		p := s.queue[head]
		if head >= untested && !s.out.add(int64(p), pts[p]) {
			return stats, nil
		}
		s.enqueueUnvisited(rings.Ring(p))
	}
	return stats, nil
}

// walkShell stamps B for pg — every ring, holes included — into s.queue,
// each site once, with its side records in s.sides.
//
//vaq:noalloc
func (d *MemoryData) walkShell(ctx context.Context, pg geom.Polygon, s *queryScratch) (walkCounts, error) {
	w := walker{pts: d.pts, rings: d.rings, first: int32(d.first), last: int32(d.last), s: s}
	s.sides = s.sides[:0]
	err := w.ring(ctx, d, pg.Outer, false)
	for _, h := range pg.Holes {
		if err == nil {
			err = w.ring(ctx, d, h, true)
		}
	}
	w.counts.shell = len(s.queue)
	return w.counts, err
}

// The walk's states between two steps.
const (
	walkCross   = iota // it has just crossed edge l–r, l left of a→b and r right
	walkSite           // it is at site v, short of b
	walkDone           // it has reached b, which at and tri place
	walkEscaped        // it crossed a fence edge
)

// walker walks rings of ∂R through the triangles of one data layer.
type walker struct {
	pts         []geom.Point
	rings       delaunay.Rings
	first, last int32
	s           *queryScratch
	counts      walkCounts
	// stamping is off while the walk locates a ring's first vertex; in is
	// the side of the ring R lies on (0 when its lowest vertex is repeated);
	// a→b is the ring segment walked.
	stamping bool
	in       geom.Orientation
	a, b     geom.Point
	l, r, v  int32
	// Where b lies, once reached, and the next segment starts: at site at
	// (≥ 0), or else in the closed triangle tri (counter-clockwise).
	at  int32
	tri [3]int32
}

// ring walks one ring, the outer one or a hole: from the site seedWalk
// finds nearest its first vertex to that vertex, stamping nothing, then
// round the ring. R lies left of a counter-clockwise outer ring and of a
// clockwise hole. The first part is timed as the seed when the query is
// traced.
//
//vaq:noalloc
func (w *walker) ring(ctx context.Context, d *MemoryData, ring geom.Ring, hole bool) error {
	if len(ring) == 0 {
		return nil
	}
	in := insideLeft(ring)
	if hole {
		in = -in
	}
	var seedStart time.Time
	if w.s.spent != nil {
		seedStart = time.Now()
	}
	seed, _ := d.seedWalk(ring[0])
	w.at, w.stamping, w.in = int32(seed), false, in
	if err := w.segment(ctx, w.pts[seed], ring[0]); err != nil {
		return err
	}
	if w.s.spent != nil {
		w.s.seeded += time.Since(seedStart)
	}
	w.stamping = true
	for i, a := range ring {
		if err := w.segment(ctx, a, ring[(i+1)%len(ring)]); err != nil {
			return err
		}
	}
	return nil
}

// segment walks a→b from where a lies to where b does.
//
//vaq:noalloc
func (w *walker) segment(ctx context.Context, a, b geom.Point) error {
	if a == b {
		return nil
	}
	w.a, w.b = a, b
	for st := w.start(); st != walkDone; w.counts.steps++ {
		if w.counts.steps%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		switch st {
		case walkSite:
			st = w.pivot(false)
		case walkCross:
			st = w.cross()
		default:
			return errWalkEscaped
		}
	}
	return nil
}

// orient is the side of site p of a→b.
//
//vaq:noalloc
func (w *walker) orient(p int32) geom.Orientation {
	w.counts.orients++
	return geom.Orient(w.a, w.b, w.pts[p])
}

// beyond is the side of b of edge p→q: positive while b lies short of the
// edge a→b heads for, 0 on it.
//
//vaq:noalloc
func (w *walker) beyond(p, q int32) geom.Orientation {
	w.counts.orients++
	return geom.Orient(w.pts[p], w.pts[q], w.b)
}

// record stamps p into B with the side of R orientation o puts it on:
// sideCheck for 0, or on a ring whose lowest vertex repeats (in is 0).
//
//vaq:noalloc
func (w *walker) record(p int32, o geom.Orientation) {
	if !w.stamping {
		return
	}
	side := sideCheck
	if o != 0 && w.in != 0 {
		side = sideOut
		if o == w.in {
			side = sideIn
		}
	}
	s := w.s
	if s.mark(p) {
		s.queue = append(s.queue, p)
		s.sides = append(s.sides, side)
		return
	}
	i := len(s.queue) - 1 // stamped before, almost always just before
	for s.queue[i] != p {
		i--
	}
	s.sides[i] |= side
}

// across returns the third site of the triangle left of edge u→v: the one
// after v in u's counter-clockwise ring, or before u in v's. It reads a user
// site's ring, and fails on an edge of two fence sites, outside the
// universe: a fence site's ring has a gap there, the outer face.
//
//vaq:noalloc
func (w *walker) across(u, v int32) (int32, bool) {
	switch {
	case w.first <= u && u < w.last:
		r := w.rings.Ring(u)
		return r[(slices.Index(r, v)+1)%len(r)], true
	case w.first <= v && v < w.last:
		r := w.rings.Ring(v)
		return r[(slices.Index(r, u)+len(r)-1)%len(r)], true
	}
	return 0, false
}

// exit heads for edge x→y of triangle (x, y, z), the walk's next: it
// reports whether b lies beyond the edge, and otherwise places b in the
// triangle. A ring vertex b on the edge stamps both its ends.
//
//vaq:noalloc
func (w *walker) exit(x, y, z int32) bool {
	e := w.beyond(x, y)
	w.at, w.tri = -1, [3]int32{x, y, z}
	if e == 0 {
		w.record(x, 0)
		w.record(y, 0)
	}
	return e < 0
}

// reach goes on along a→b towards site n on it, e being the side of b of an
// edge ending at n: b lies short of n (placed by the caller), at n, or past
// it.
//
//vaq:noalloc
func (w *walker) reach(n int32, e geom.Orientation) int {
	switch {
	case e > 0:
		return walkDone
	case e == 0:
		w.at = n
		return walkDone
	}
	w.v = n
	return walkSite
}

// start sets a→b off from where a lies.
//
//vaq:noalloc
func (w *walker) start() int {
	if w.at >= 0 {
		w.v = w.at
		return w.pivot(true)
	}
	// a lies in the closed triangle t, inside or on an edge: a→b leaves t
	// through the edge from a site right of it to one left of it, through a
	// site on it after a right one, or along an edge it runs on.
	t := w.tri
	o := [3]geom.Orientation{w.orient(t[0]), w.orient(t[1]), w.orient(t[2])}
	for i := range 3 {
		j, k := (i+1)%3, (i+2)%3
		switch {
		case o[i] == 0 && o[j] == 0 && o[k] > 0:
			// a→b runs along edge ti→tj, the edge's way.
			return w.reach(t[j], w.beyond(t[j], t[k]))
		case o[i] >= 0 || o[j] < 0:
			continue
		case o[j] == 0:
			return w.reach(t[j], w.beyond(t[i], t[j]))
		case !w.exit(t[i], t[j], t[k]):
			return walkDone
		}
		w.record(t[i], o[i])
		w.record(t[j], o[j])
		w.l, w.r = t[j], t[i]
		return walkCross
	}
	return walkDone // not reached: a lies in t, and a ≠ b
}

// cross steps into the triangle beyond edge l–r and leaves it through the
// edge or the site a→b meets next, stamping the site it did not know.
//
//vaq:noalloc
func (w *walker) cross() int {
	l, r := w.l, w.r
	s, ok := w.across(l, r)
	if !ok {
		return walkEscaped
	}
	switch os := w.orient(s); {
	case os > 0:
		if !w.exit(r, s, l) {
			return walkDone
		}
		w.record(s, os)
		w.l = s
	case os < 0:
		if !w.exit(s, l, r) {
			return walkDone
		}
		w.record(s, os)
		w.r = s
	default:
		w.at, w.tri = -1, [3]int32{l, r, s}
		return w.reach(s, w.beyond(r, s))
	}
	return walkCross
}

// pivot turns about site v on a→b, stamping it and every neighbour (each
// edge of v meets ∂R at v; at a ring vertex each is validated), and leaves
// v into the triangle between a neighbour right of a→b and the next, left
// of it, or along the edge to a neighbour on it.
//
//vaq:noalloc
func (w *walker) pivot(ringVertex bool) int {
	v := w.v
	w.record(v, 0)
	c := w.rings.Ring(v)
	k := len(c) - 1
	last := w.orient(c[k])
	prev, exit, along := last, 0, false
	for j, n := range c {
		o := last
		if j < k {
			o = w.orient(n)
		}
		if ringVertex {
			w.record(n, 0)
		} else {
			w.record(n, o)
		}
		if prev < 0 && o >= 0 {
			exit, along = j, o == 0
		}
		prev = o
	}
	x, y := c[(exit+k)%len(c)], c[exit]
	if along {
		e := w.beyond(x, y)
		if e > 0 {
			w.at, w.tri = -1, [3]int32{v, y, c[(exit+1)%len(c)]}
		}
		return w.reach(y, e)
	}
	if !w.exit(x, y, v) {
		return walkDone
	}
	w.l, w.r = y, x
	return walkCross
}
