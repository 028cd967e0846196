package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/robust"
)

// The strict rule on a polygon R validates only the shell: the
// cells that meet ∂R. A closed Voronoi cell that misses ∂R lies wholly
// inside or wholly outside R, so one containment test settles every site of
// such a cell, and a Delaunay neighbour of a site whose cell lies inside R
// has a cell that shares a point with it: if it misses ∂R too, it lies
// inside as well. The cells leave no neutral region between them, so a walk
// along ∂R from cell to cell marks every cell it meets with no gap. The
// query therefore runs in three stages:
//
//  1. Trace (traceShell): walk each ring of ∂R, holes included, through the
//     diagram, stamping every site whose closed cell meets it — the set B —
//     and noting, per cell, the ring indices of the neighbours the walk
//     entered it from and left it through (shellPass).
//  2. Validate: test every site of B against R. An unstamped neighbour of a
//     cell the trace crossed exactly once is classified by its ring index
//     alone (shellPass.arc): ∂R cuts that cell in two, and the neighbour
//     lies on the side of the arc of the cell's boundary its edge is on.
//     Every other unstamped neighbour of B — of a cell crossed more than
//     once, entered and left through one edge, met at a tie, or the ring's
//     first cell unless the walk's last entry closes it, and of every cell
//     of a polygon with holes — is tested against R.
//  3. Flood: from the unstamped sites found inside R, flood the unstamped
//     Delaunay neighbours and emit them with no test and no record load.
//
// Every site of R is returned, for any simple polygon: a site of R whose
// cell misses ∂R lies in a face of R that some path of such cells links to
// a neighbour of B. The cells are never clipped.

// shellCounts is the trace's deterministic cost: the size of B (shell), the
// cells whose neighbours it scanned (steps), the bisector crossings it
// evaluated, and the crossing comparisons the float filter left to the
// exact stage.
type shellCounts struct {
	shell, steps, crossings, exact int
}

// eachShell is VoronoiBFSStrict on a polygon pg: trace, validate, flood.
// region is pg itself, or its prepared form, and answers the validations.
// Ring starts are timed under PhaseSeed, the walk and the flood under
// PhaseExpand, and the validations' record loads under PhasePageFetch.
func (e *Engine) eachShell(ctx context.Context, pg geom.Polygon, region Region, tr *obs.QueryTrace, s *queryScratch) (Stats, error) {
	traced := tr != nil
	var start time.Time
	var seeded, fetched time.Duration
	if traced {
		start = time.Now()
		defer func() {
			tr.Add(obs.PhaseSeed, seeded)
			tr.Add(obs.PhasePageFetch, fetched)
			tr.Add(obs.PhaseExpand, time.Since(start)-seeded-fetched)
		}()
	}
	d := e.data
	left := insideLeft(pg)
	if _, err := d.traceShell(ctx, pg, left != 0, s, traced, &seeded); err != nil {
		return Stats{}, err
	}
	stats, loads, err := d.floodShell(ctx, region, left, s, traced)
	fetched = loads
	return stats, err
}

// insideLeft reports which side of pg's outer ring, walked in vertex order,
// is inside pg: +1 the left (the ring runs counter-clockwise), −1 the right.
// One exact orientation at the lowest vertex decides it, which is a strict
// turn on a simple ring. It is 0 for a polygon with holes (or a degenerate
// ring), whose passes stage 2 does not read: left of a hole is not the side
// left of the outer ring is.
//
//vaq:noalloc
func insideLeft(pg geom.Polygon) int {
	r := pg.Outer
	if len(pg.Holes) > 0 || len(r) < 3 {
		return 0
	}
	lo := 0
	for i, p := range r {
		if p.Y < r[lo].Y || p.Y == r[lo].Y && p.X < r[lo].X {
			lo = i
		}
	}
	return int(geom.Orient(r[(lo+len(r)-1)%len(r)], r[lo], r[(lo+1)%len(r)]))
}

// floodShell runs stages 2 and 3 over the shell s.queue holds: validate its
// sites, classify or validate their unstamped neighbours, then flood from
// the ones inside. left is insideLeft of the polygon: when it is not 0,
// s.passes holds the trace's pass through each cell of the shell, and a
// neighbour of a cell crossed exactly once goes to the side its ring index
// puts it on — emitted and flooded from when that side is inside, dropped
// otherwise — with no record load and no test. fetched is the accrued
// record-load time (for tracing).
//
//vaq:noalloc
func (d *MemoryData) floodShell(ctx context.Context, region Region, left int, s *queryScratch, traced bool) (stats Stats, fetched time.Duration, err error) {
	v := shellValidator{d: d, region: region, s: s, traced: traced}
	pts, off, nbrs := d.pts, d.nbrOff, d.nbrs
	shell := len(s.queue)
	for i := 0; i < shell; i++ {
		if i%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return v.stats, v.fetched, err
			}
		}
		p := s.queue[i]
		if _, stop, err := v.validate(p); stop {
			return v.stats, v.fetched, err
		}
		ring := nbrs[off[p]:off[p+1]]
		from, span := 0, 0
		if left != 0 {
			from, span = s.passes[i].arc(len(ring))
		}
		for j, nb := range ring {
			if !s.mark(nb) {
				continue
			}
			if span > 0 {
				// nb's closed cell misses ∂R and shares an edge with p's
				// cell on one side of the pass: it lies on that side.
				if insideOfPass(j, from, span, len(ring), left) {
					if !s.out.add(int64(nb), pts[nb]) {
						return v.stats, v.fetched, nil
					}
					s.queue = append(s.queue, nb)
				}
				continue
			}
			inside, stop, err := v.validate(nb)
			if stop {
				return v.stats, v.fetched, err
			}
			if inside {
				s.queue = append(s.queue, nb)
			}
		}
	}
	// The queue now holds the shell, then the classified and validated
	// interior sites, all emitted; everything the flood appends after them
	// is emitted untested.
	untested := len(s.queue)
	for head := shell; head < len(s.queue); head++ {
		if head%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return v.stats, v.fetched, err
			}
		}
		p := s.queue[head]
		if head >= untested && !s.out.add(int64(p), pts[p]) {
			return v.stats, v.fetched, nil
		}
		s.enqueueUnvisited(nbrs[off[p]:off[p+1]])
	}
	return v.stats, v.fetched, nil
}

// shellPass is the trace's pass through one cell of B: the ring indices of
// the neighbour the walk entered the cell from (in) and of the one it left
// through (out), each noPass until it first crosses that edge. A cell the
// walk leaves twice, or meets at a tie, holds spoiledPass. The ring's first
// cell has no entry until the walk comes back into it: that entry closes
// its pass, which began at the ring's first vertex, unless the walk leaves
// the cell again. (Any other cell the walk enters twice it leaves twice, or
// ends the ring in, and then the ring's first vertex is a tie.)
type shellPass struct{ in, out int32 }

const noPass = -1

// spoiledPass is the pass of a cell the walk left twice or met at a tie:
// stage 2 validates its neighbours.
var spoiledPass = shellPass{-2, -2}

// arc returns how the pass cuts a ring of deg neighbours: ∂R runs through
// the cell from edge in to edge out, so the neighbours strictly
// counter-clockwise from out to in — ring indices from+1 … from+span−1,
// cyclically — lie left of ∂R and the others, but those two, right. span
// is 0 when the pass classifies nothing: when it is spoiled or unfinished,
// and when in and out are one edge, which leaves the side of every other
// edge undecided.
//
//vaq:noalloc
func (p shellPass) arc(deg int) (from, span int) {
	if p.in < 0 || p.out < 0 {
		return 0, 0
	}
	span = int(p.in - p.out)
	if span < 0 {
		span += deg
	}
	return int(p.out), span
}

// insideOfPass reports whether ring index j of a ring of deg neighbours
// lies inside R by a pass's arc (from, span): in the left arc when left,
// insideLeft of the polygon, is +1, in the right one when it is −1.
//
//vaq:noalloc
func insideOfPass(j, from, span, deg, left int) bool {
	k := j - from
	if k < 0 {
		k += deg
	}
	return (0 < k && k < span) == (left > 0)
}

// shellValidator is stage 2's one containment test per site, with its
// statistics.
type shellValidator struct {
	d       *MemoryData
	region  Region
	s       *queryScratch
	traced  bool
	fetched time.Duration
	stats   Stats
}

// validate loads p's record, tests it against the region and emits it when
// inside; stop reports that the collector declined or the load failed.
//
//vaq:noalloc
func (v *shellValidator) validate(p int32) (inside, stop bool, err error) {
	pos := v.d.pts[p]
	if v.d.store != nil && int(p) < v.d.last { // a fence site has no record
		if pos, err = fetch(v.d.store, int64(p), v.traced, &v.fetched); err != nil {
			//vaqvet:ignore noalloc cold failure path; the wrap allocates only when a record load already failed
			return false, true, fmt.Errorf("core: loading candidate %d: %w", p, err)
		}
	}
	v.stats.RecordsLoaded++
	v.stats.Candidates++
	if !v.region.ContainsPoint(pos) {
		v.stats.RedundantValidations++
		return false, false, nil
	}
	return true, !v.s.out.add(int64(p), pos), nil
}

// traceShell stamps every site whose closed Voronoi cell meets the boundary
// of pg — every ring, holes included — and appends each to s.queue once:
// the set B. With passes it also records, in s.passes beside B, the walk's
// pass through each cell (shellPass). Ring starts (the seed walk and its
// exact confirmation) are timed into *seeded when traced.
//
//vaq:noalloc
func (d *MemoryData) traceShell(ctx context.Context, pg geom.Polygon, passes bool, s *queryScratch, traced bool, seeded *time.Duration) (shellCounts, error) {
	t := shellTracer{pts: d.pts, off: d.nbrOff, nbrs: d.nbrs, s: s, passes: passes}
	s.passes = s.passes[:0]
	if err := t.ring(ctx, d, pg.Outer, traced, seeded); err != nil {
		return t.counts, err
	}
	for _, h := range pg.Holes {
		if err := t.ring(ctx, d, h, traced, seeded); err != nil {
			return t.counts, err
		}
	}
	t.counts.shell = len(s.queue)
	return t.counts, nil
}

// shellTracer walks rings through the diagram of one data layer.
type shellTracer struct {
	pts       []geom.Point
	off, nbrs []int32
	s         *queryScratch
	counts    shellCounts
	// passes turns on the pass bookkeeping: s.passes[i] is the pass through
	// s.queue[i]. cur indexes the cell the walk is in and first the ring's
	// first cell.
	passes     bool
	cur, first int
	// from is the cell the walk has just crossed from, until the step after
	// the crossing reads its ring index; -1 otherwise.
	from int32
}

// enter moves the walk into p, across the bisector of p and from (or to
// a ring's first vertex, from −1), and stamps p into B unless it is there.
//
//vaq:noalloc
func (t *shellTracer) enter(p, from int32) {
	t.from = from
	if t.s.mark(p) {
		t.s.queue = append(t.s.queue, p)
		if t.passes {
			t.s.passes = append(t.s.passes, shellPass{noPass, noPass})
			t.cur = len(t.s.passes) - 1
		}
		return
	}
	if t.passes {
		t.cur = t.find(p)
	}
}

// stamp adds a site met at a tie to B, spoiling its pass.
//
//vaq:noalloc
func (t *shellTracer) stamp(p int32) {
	if t.s.mark(p) {
		t.s.queue = append(t.s.queue, p)
		if t.passes {
			t.s.passes = append(t.s.passes, spoiledPass)
		}
		return
	}
	if t.passes {
		t.s.passes[t.find(p)] = spoiledPass
	}
}

// find returns the index of p in B: the current cell, the ring's first, or
// one found searching back from the last stamped. The walk comes back to a
// cell, or meets it at a tie, seldom and soon after it left it.
//
//vaq:noalloc
func (t *shellTracer) find(p int32) int {
	q := t.s.queue
	switch {
	case q[t.cur] == p:
		return t.cur
	case q[t.first] == p:
		return t.first
	}
	i := len(q) - 1
	for q[i] != p {
		i--
	}
	return i
}

// frame is the frame of segment a→b and site c.
//
//vaq:noalloc
func (t *shellTracer) frame(a, b geom.Point, c int32) robust.Frame {
	pc := t.pts[c]
	return robust.NewFrame(a.X, a.Y, b.X, b.Y, pc.X, pc.Y)
}

// crossings evaluates, once per step, the crossing of f with the bisector
// of c and each of its neighbours nbs, into the scratch's cache — all but
// that of from, the cell the walk has just crossed from along f, whose ring
// index it returns as in (−1 when from is not among them). The walk crossed
// their bisector heading into c, at E > 0 in from's frame, so E is exactly
// its negation in c's: its crossing lies behind.
//
//vaq:noalloc
func (t *shellTracer) crossings(f *robust.Frame, nbs []int32, from int32) (cross []robust.Crossing, in int) {
	cross = slices.Grow(t.s.cross[:0], len(nbs))[:len(nbs)]
	in = -1
	for j, nb := range nbs {
		if nb == from {
			in = j
			continue
		}
		p := t.pts[nb]
		f.Crossing(&cross[j], p.X, p.Y)
	}
	t.s.cross = cross
	t.counts.crossings += len(nbs)
	if in >= 0 {
		t.counts.crossings--
	}
	return cross, in
}

// ring traces one ring. Its first vertex's cell comes from seedWalk and is
// then confirmed exactly (no neighbour strictly nearer); each edge a→b is
// then walked from the cell holding a: the edge leaves the current cell c
// through the bisector it crosses first, with c's neighbour n on the far
// side, at t = N/E (robust.Crossing, E > 0), unless that t is at least 1 and
// b lies in c. Every cell entered is stamped.
//
// A tie is a point of the ring where c is not the only nearest site and the
// walk does not simply cross from c into the other one: a Voronoi vertex on
// the ring (cocircular sites), an edge lying along a bisector, or a ring
// vertex equidistant to two sites. The walk first reaches a tie point in a
// cell c it was in before that point (or at the ring's first vertex), and
// there a neighbour of c shows the tie: two neighbours share the least
// crossing t; the edge lies along a neighbour's bisector (E = N = 0); at b,
// the least crossing is t = 1 exactly; at the first vertex, a neighbour has
// N = 0. (A neighbour with E < 0 cannot be as near there: c was nearer just
// before.) Each case calls ties, which stamps every site as near to that
// point, so B holds every cell whose closed cell meets the ring. The walk
// then goes on from any one of them.
//
//vaq:noalloc
func (t *shellTracer) ring(ctx context.Context, d *MemoryData, ring geom.Ring, traced bool, seeded *time.Duration) error {
	if len(ring) == 0 {
		return nil
	}
	var seedStart time.Time
	if traced {
		seedStart = time.Now()
	}
	v0, v1 := ring[0], ring[1%len(ring)]
	seed, _ := d.seedWalk(v0)
	c := int32(seed)
	// Confirm the seed exactly: step to a strictly nearer neighbour while
	// there is one (N < 0), and note one as near (N = 0).
	tied := false
	for moved := true; moved; {
		moved, tied = false, false
		f := t.frame(v0, v1, c)
		cross, _ := t.crossings(&f, t.nbrs[t.off[c]:t.off[c+1]], -1)
		for j := range cross {
			switch f.CrossingOrder(&t.s.cross[j], &robust.AtStart) {
			case -1:
				c, moved = t.nbrs[t.off[c]+int32(j)], true
			case 0:
				tied = true
			}
			if moved {
				break
			}
		}
		t.counts.exact += f.Exact()
	}
	t.enter(c, -1)
	t.first = t.cur
	if tied {
		f := t.frame(v0, v1, c)
		t.ties(&f, c, &robust.AtStart)
		t.counts.exact += f.Exact()
	}
	if traced {
		*seeded += time.Since(seedStart)
	}

	for i := range ring {
		a, b := ring[i], ring[(i+1)%len(ring)]
		for done := false; !done; {
			if t.counts.steps%cancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			t.counts.steps++
			f := t.frame(a, b, c)
			c, done = t.step(&f, c)
			t.counts.exact += f.Exact()
		}
	}
	return nil
}

// step scans the neighbours of c, whose cell holds the walk's point on f's
// segment, and returns the cell the walk goes on in: the neighbour across
// the bisector the segment crosses first, stamped, or c itself with done
// when the segment ends in c's cell. It stamps the ties on the way, and
// notes the edges the walk entered and leaves c's cell through in its pass.
//
//vaq:noalloc
func (t *shellTracer) step(f *robust.Frame, c int32) (next int32, done bool) {
	nbs := t.nbrs[t.off[c]:t.off[c+1]]
	cross, in := t.crossings(f, nbs, t.from)
	t.from = -1
	if in >= 0 && t.passes && t.s.passes[t.cur].in == noPass {
		t.s.passes[t.cur].in = int32(in)
	}
	best, tie, along := -1, false, false
	for j, nb := range nbs {
		if j == in {
			continue // the walk came from nb: its crossing lies behind
		}
		x := &cross[j]
		switch f.Heading(x) {
		case -1:
			continue // c stays nearer than nb along the rest of the edge
		case 0:
			if f.CrossingOrder(x, &robust.AtStart) == 0 {
				// The edge lies along their bisector.
				t.stamp(nb)
				along = true
			}
			continue
		}
		if best < 0 {
			best, tie = j, false
			continue
		}
		switch f.CrossingOrder(x, &cross[best]) {
		case -1:
			best, tie = j, false
		case 0:
			tie = true
		}
	}
	if best < 0 {
		if along {
			t.ties(f, c, &robust.AtEnd)
		}
		return c, true
	}
	if end := f.CrossingOrder(&cross[best], &robust.AtEnd); end >= 0 {
		// The edge ends in c; b is a tie point when the first crossing is
		// b itself.
		if end == 0 || along {
			t.ties(f, c, &robust.AtEnd)
		}
		return c, true
	}
	if tie || along {
		t.ties(f, c, &cross[best])
	}
	if t.passes {
		if pass := &t.s.passes[t.cur]; pass.out == noPass {
			pass.out = int32(best)
		} else {
			*pass = spoiledPass
		}
	}
	next = nbs[best]
	t.enter(next, c)
	return next, false
}

// ties stamps every site as near to the point of f's segment at crossing at
// as f's site c is: the sites whose closed cells all hold that point. They
// are linked to c through Delaunay edges among themselves (they lie on one
// empty circle, whose polygon the triangulation triangulates), so a search
// from c over neighbours that pass the test reaches all of them; it lists
// them in the scratch's ties. Every one of them, c included, has its pass
// spoiled.
//
//vaq:noalloc
func (t *shellTracer) ties(f *robust.Frame, c int32, at *robust.Crossing) {
	t.stamp(c)
	ties := t.s.ties[:0]
	ties = append(ties, c)
	for i := 0; i < len(ties); i++ {
		for _, m := range t.nbrs[t.off[ties[i]]:t.off[ties[i]+1]] {
			if slices.Contains(ties, m) {
				continue
			}
			p := t.pts[m]
			var x robust.Crossing
			f.Crossing(&x, p.X, p.Y)
			t.counts.crossings++
			if f.CrossingOrder(&x, at) == 0 {
				ties = append(ties, m)
				t.stamp(m)
			}
		}
	}
	t.s.ties = ties
}
