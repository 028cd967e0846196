package core

import "repro/internal/geom"

// hintGrid answers "a site near p" for the seed walk: one site id per
// bucket of a fixed grid over a rectangle. A bucket some site lies in holds
// the first such site; every other bucket holds the entry of the nearest
// bucket that has one (in bucket steps along the axes), so a query into empty
// space starts its walk at the edge of the data nearest to it rather than a
// whole dataset away.
//
// It is only a hint: any live id is a correct answer, a near one a short
// walk. It is deterministic in the insertion order, never in which query
// ran before.
type hintGrid struct {
	minX, minY float64
	sx, sy     float64 // buckets per unit length; 0 on an axis of no extent
	side       int     // buckets per axis
	site       []int32 // side² entries, row-major; -1 while the grid holds no site

	// Writer state, which a lookup never reads: dist[b] is how many bucket
	// steps away the bucket of site[b] lies (0: b holds that site itself,
	// unreached: no site yet), frontier the buckets add has written and flood
	// has not yet spread, shared whether a frozen view reads site — the next
	// add that changes an entry then copies the slice first.
	dist     []uint16
	frontier []int32
	shared   bool
}

const unreached = ^uint16(0)

// sitesPerBucket is the target occupancy on a layer whose point count is
// known: n/4 to n/32 buckets all measured the same q/s, so the grid takes
// the small end (≈ 1/4 byte per site).
const sitesPerBucket = 16

// newHintGrid returns an empty grid of side×side buckets over r.
func newHintGrid(r geom.Rect, side int) hintGrid {
	g := hintGrid{minX: r.MinX, minY: r.MinY, side: side}
	if w := r.Width(); w > 0 {
		g.sx = float64(side) / w
	}
	if h := r.Height(); h > 0 {
		g.sy = float64(side) / h
	}
	g.site = make([]int32, side*side)
	g.dist = make([]uint16, side*side)
	for i := range g.site {
		g.site[i], g.dist[i] = -1, unreached
	}
	return g
}

// bucket returns the index of the bucket over p, clamped into the grid: a p
// outside the rectangle takes the nearest border bucket, and a NaN
// coordinate the first.
//
//vaq:noalloc
func (g *hintGrid) bucket(p geom.Point) int {
	return clampBucket((p.Y-g.minY)*g.sy, g.side)*g.side + clampBucket((p.X-g.minX)*g.sx, g.side)
}

//vaq:noalloc
func clampBucket(f float64, side int) int {
	switch {
	case !(f > 0):
		return 0
	case f >= float64(side):
		return side - 1
	}
	return int(f)
}

// add records that site id lies at p. The entry reaches the empty buckets
// around it with the next flood.
func (g *hintGrid) add(id int32, p geom.Point) {
	b := g.bucket(p)
	if g.dist[b] == 0 {
		return // an earlier site of this bucket is its entry, and stays
	}
	if g.shared {
		g.site, g.shared = append([]int32(nil), g.site...), false
	}
	g.site[b], g.dist[b] = id, 0
	g.frontier = append(g.frontier, int32(b))
}

// flood spreads the entries added since the last flood: breadth-first from
// their buckets, a bucket takes a neighbor's entry when that brings it
// nearer than the one it has. Called once after a batch of adds it is one
// multi-source pass over the grid; called after a single add it visits only
// the buckets the new site is now the nearest to, and nothing when the site
// landed in a bucket that had one.
func (g *hintGrid) flood() {
	for head := 0; head < len(g.frontier); head++ {
		b := int(g.frontier[head])
		x, y := b%g.side, b/g.side
		if y > 0 {
			g.relax(b, b-g.side)
		}
		if y < g.side-1 {
			g.relax(b, b+g.side)
		}
		if x > 0 {
			g.relax(b, b-1)
		}
		if x < g.side-1 {
			g.relax(b, b+1)
		}
	}
	// Not kept for the next flood: a grid's first site floods every bucket,
	// and a queue that size would outlive the one flood that needs it.
	g.frontier = nil
}

// relax hands bucket from's entry to its neighbor to when that leaves to
// nearer to a site than it was, and queues to so that it passes the entry on.
func (g *hintGrid) relax(from, to int) {
	if d := g.dist[from] + 1; d < g.dist[to] {
		g.site[to], g.dist[to] = g.site[from], d
		g.frontier = append(g.frontier, int32(to))
	}
}

// lookup returns the entry of the bucket over p.
//
//vaq:noalloc
func (g *hintGrid) lookup(p geom.Point) int64 { return int64(g.site[g.bucket(p)]) }

// frozen returns the read-only view of g a data layer keeps: the entries as
// they are now and nothing of the writer's state. It costs no copy — the
// view shares the entries with g until g is about to change one — so a
// dynamic engine whose inserts land in buckets that already hold a site
// publishes the same slice epoch after epoch.
func (g *hintGrid) frozen() hintGrid {
	g.shared = true
	return hintGrid{minX: g.minX, minY: g.minY, sx: g.sx, sy: g.sy, side: g.side, site: g.site}
}

// seedWalk answers lines 3–4 of Algorithm 1, NN(P, p), on the structure the
// algorithm already holds: every point of the plane lies in some Voronoi
// cell, so a site that is not p's nearest has a Delaunay neighbor strictly
// nearer to p (p is on the far side of one of its cell's edges), and
// stepping to the nearest neighbor while one is strictly nearer ends at the
// nearest site. It starts at m's hint, slices m's positions and rings in
// place, and reads no index node and no record. steps is the number of
// moves made — the walk's
// deterministic cost, pinned by TestSeedWalkStepsPinned.
//
// The graph includes the layer's three fence sites; by the fence lemma
// (package delaunay), for p inside the universe some user site is nearer
// than any of them, so the walk never steps onto one.
//
//vaq:noalloc
func (m *MemoryData) seedWalk(p geom.Point) (seed int64, steps int) {
	pts, off, nbrs := m.pts, m.nbrOff, m.nbrs
	cur := int32(m.hint.lookup(p))
	best := p.Dist2(pts[cur])
	for {
		next := cur
		for _, nb := range nbrs[off[cur]:off[cur+1]] {
			if d := p.Dist2(pts[nb]); d < best {
				next, best = nb, d
			}
		}
		if next == cur {
			return int64(cur), steps
		}
		cur = next
		steps++
	}
}
