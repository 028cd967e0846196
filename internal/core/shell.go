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

// The strict rule on a prepared polygon R validates only the shell: the
// cells that meet ∂R. A closed Voronoi cell that misses ∂R lies wholly
// inside or wholly outside R, so one containment test settles every site of
// such a cell, and a Delaunay neighbour of a site whose cell lies inside R
// has a cell that shares a point with it: if it misses ∂R too, it lies
// inside as well. The cells leave no neutral region between them, so a walk
// along ∂R from cell to cell marks every cell it meets with no gap. The
// query therefore runs in three stages:
//
//  1. Trace (traceShell): walk each ring of ∂R, holes included, through the
//     diagram, stamping every site whose closed cell meets it — the set B.
//  2. Validate: test every site of B, and every unstamped neighbour of one,
//     against R.
//  3. Flood: from the unstamped sites found inside R, flood the unstamped
//     Delaunay neighbours and emit them with no test and no record load.
//
// Every site of R is returned, for any polygon: a site of R whose cell
// misses ∂R lies in a face of R that some path of such cells links to a
// neighbour of B. The cells are never clipped, so the trace needs no cell
// arena.

// shellCounts is the trace's deterministic cost: the size of B (shell), the
// cells whose neighbours it scanned (steps), the bisector crossings it
// evaluated, and the crossing comparisons the float filter left to the
// exact stage.
type shellCounts struct {
	shell, steps, crossings, exact int
}

// eachShell is VoronoiBFSStrict on a prepared polygon: trace, validate,
// flood. Ring starts are timed under PhaseSeed, the walk and the flood under
// PhaseExpand, and the validations' record loads under PhasePageFetch.
func (e *Engine) eachShell(ctx context.Context, pp *geom.PreparedPolygon, tr *obs.QueryTrace, s *queryScratch) (Stats, error) {
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
	if _, err := d.traceShell(ctx, pp.Polygon(), s, traced, &seeded); err != nil {
		return Stats{}, err
	}
	stats, loads, err := d.floodShell(ctx, pp, s, traced)
	fetched = loads
	return stats, err
}

// floodShell runs stages 2 and 3 over the shell s.queue holds: validate its
// sites and their unstamped neighbours, then flood from the ones inside.
// fetched is the accrued record-load time (for tracing).
//
//vaq:noalloc
func (d *MemoryData) floodShell(ctx context.Context, region Region, s *queryScratch, traced bool) (stats Stats, fetched time.Duration, err error) {
	v := shellValidator{d: d, region: region, s: s, traced: traced}
	off, nbrs := d.nbrOff, d.nbrs
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
		for _, nb := range nbrs[off[p]:off[p+1]] {
			if !s.mark(nb) {
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
	// The queue now holds the shell, then the validated interior sites;
	// everything the flood appends after them is emitted untested.
	pts, untested := d.pts, len(s.queue)
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
	if v.d.store != nil {
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
// the set B. Ring starts (the seed walk and its exact confirmation) are
// timed into *seeded when traced.
//
//vaq:noalloc
func (d *MemoryData) traceShell(ctx context.Context, pg geom.Polygon, s *queryScratch, traced bool, seeded *time.Duration) (shellCounts, error) {
	t := shellTracer{pts: d.pts, off: d.nbrOff, nbrs: d.nbrs, s: s}
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
}

// mark adds site p to B unless it is there.
//
//vaq:noalloc
func (t *shellTracer) mark(p int32) {
	if t.s.mark(p) {
		t.s.queue = append(t.s.queue, p)
	}
}

// frame is the frame of segment a→b and site c.
//
//vaq:noalloc
func (t *shellTracer) frame(a, b geom.Point, c int32) robust.Frame {
	pc := t.pts[c]
	return robust.NewFrame(a.X, a.Y, b.X, b.Y, pc.X, pc.Y)
}

// crossings evaluates, once per step, the crossing of f with the bisector
// of c and each of its neighbours, into the scratch's cache.
//
//vaq:noalloc
func (t *shellTracer) crossings(f *robust.Frame, c int32) []robust.Crossing {
	nbs := t.nbrs[t.off[c]:t.off[c+1]]
	cross := slices.Grow(t.s.cross[:0], len(nbs))[:len(nbs)]
	for j, nb := range nbs {
		p := t.pts[nb]
		f.Crossing(&cross[j], p.X, p.Y)
	}
	t.s.cross = cross
	t.counts.crossings += len(nbs)
	return cross
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
		for j := range t.crossings(&f, c) {
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
	t.mark(c)
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
// when the segment ends in c's cell. It stamps the ties on the way.
//
//vaq:noalloc
func (t *shellTracer) step(f *robust.Frame, c int32) (next int32, done bool) {
	cross := t.crossings(f, c)
	nbs := t.nbrs[t.off[c]:t.off[c+1]]
	best, tie, along := -1, false, false
	for j, nb := range nbs {
		x := &cross[j]
		switch f.Heading(x) {
		case -1:
			continue // c stays nearer than nb along the rest of the edge
		case 0:
			if f.CrossingOrder(x, &robust.AtStart) == 0 {
				// The edge lies along their bisector.
				t.mark(nb)
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
	next = nbs[best]
	t.mark(next)
	return next, false
}

// ties stamps every site as near to the point of f's segment at crossing at
// as f's site c is: the sites whose closed cells all hold that point. They
// are linked to c through Delaunay edges among themselves (they lie on one
// empty circle, whose polygon the triangulation triangulates), so a search
// from c over neighbours that pass the test reaches all of them; it lists
// them in the scratch's ties.
//
//vaq:noalloc
func (t *shellTracer) ties(f *robust.Frame, c int32, at *robust.Crossing) {
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
				t.mark(m)
			}
		}
	}
	t.s.ties = ties
}
