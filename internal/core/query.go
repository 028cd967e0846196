package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/voronoi"
)

// cancelStride is the number of candidates a query processes between
// context-cancellation checks. Candidate processing is the unit of work
// every method shares (a record load plus a containment test, microseconds
// each), so checking once per stride bounds cancellation latency to tens of
// microseconds while keeping the check off the per-candidate hot path.
const cancelStride = 64

// QuerySpec is the per-query request shape shared by every engine flavor:
// the algorithm plus the execution options the public API exposes as
// functional options.
type QuerySpec struct {
	// Method selects the area-query algorithm.
	Method Method
	// CountOnly skips materializing the result slice; the match count is
	// reported in Stats.ResultSize.
	CountOnly bool
	// Dest, when non-nil, is the buffer results are appended into
	// (overwriting from Dest[:0]), letting repeated queries reuse one
	// allocation. Ignored with CountOnly.
	Dest []int64
	// Trace, when non-nil, receives per-phase timings (seed lookup, BFS
	// expansion, page fetches) as the query runs. The nil path costs one
	// pointer comparison.
	Trace *obs.QueryTrace
}

// QueryRegionSpec runs an area query described by spec against region. It
// is the context-aware entry point beneath the public Querier API: ctx
// cancellation is checked on candidate-generation boundaries and surfaces
// as ctx.Err() with the statistics of the work already performed. The
// returned ids are nil when spec.CountOnly is set (the count is
// Stats.ResultSize) and in method-dependent discovery order otherwise.
func (e *Engine) QueryRegionSpec(ctx context.Context, region Region, spec QuerySpec) ([]int64, Stats, error) {
	c := collector{countOnly: spec.CountOnly}
	if !spec.CountOnly && spec.Dest != nil {
		c.dest = spec.Dest[:0]
	}
	ids, stats, err := e.collect(ctx, region, spec, c)
	if err != nil || spec.CountOnly {
		// No partial result slice alongside a non-nil error (stats still
		// report the partial work), and none under CountOnly.
		return nil, stats, err
	}
	return ids, stats, nil
}

// EachRegion streams an area query: yield is called with each result (id
// and position) as the algorithm discovers it — the Voronoi methods yield
// during the BFS itself, so consumers see results before the query
// completes. yield returning false stops the query cleanly; spec.CountOnly
// and spec.Dest are ignored (nothing is materialized). The returned Stats
// count the yields in ResultSize.
func (e *Engine) EachRegion(ctx context.Context, region Region, spec QuerySpec, yield func(id int64, pos geom.Point) bool) (Stats, error) {
	_, stats, err := e.collect(ctx, region, spec, collector{yield: yield})
	return stats, err
}

// collect runs one query with c as its result collector. The collector
// lives in the pooled scratch for the query's duration, so the algorithms
// reach it through the scratch they already hold and no per-query closure
// or captured variable is built; it is cleared before the scratch returns
// to the pool, which therefore never retains a caller's buffer or yield.
func (e *Engine) collect(ctx context.Context, region Region, spec QuerySpec, c collector) ([]int64, Stats, error) {
	s := e.acquireScratch()
	s.out = c
	stats, err := e.eachRegion(ctx, region, spec.Method, spec.Trace, s)
	stats.ResultSize = s.out.count
	ids := s.out.dest
	s.out = collector{}
	e.releaseScratch(s)
	//vaqvet:ignore poolalias ids is the caller's Dest (or grown from nil for the caller); s.out was cleared before Put, so the pool keeps no alias to it
	return ids, stats, err
}

// eachRegion runs the method after the shared empty-data and cancellation
// checks. The first reads the data layer, not the index, so only a
// Traditional query makes a dynamic epoch pack its R-tree. A traced query
// splits its time here, the same way for every method: the seed lookups
// and the buffer pool reads the scratch accrued (PhaseSeed,
// PhasePageFetch), and the rest of the method's run (PhaseExpand).
func (e *Engine) eachRegion(ctx context.Context, region Region, m Method, tr *obs.QueryTrace, s *queryScratch) (Stats, error) {
	if e.data.Len() == 0 {
		return Stats{}, ErrNoData
	}
	if err := ctx.Err(); err != nil {
		// An already-cancelled context returns promptly on every method,
		// before any index or record work.
		return Stats{}, err
	}
	var start time.Time
	s.spent = nil
	if tr != nil {
		s.seeded, s.fetched, s.spent = 0, 0, &s.fetched
		start = time.Now()
	}
	stats, err := e.run(ctx, region, m, s)
	if tr != nil {
		tr.Add(obs.PhaseSeed, s.seeded)
		tr.Add(obs.PhasePageFetch, s.fetched)
		tr.Add(obs.PhaseExpand, time.Since(start)-s.seeded-s.fetched)
	}
	return stats, err
}

// run dispatches to the method implementations.
func (e *Engine) run(ctx context.Context, region Region, m Method, s *queryScratch) (Stats, error) {
	switch m {
	case Traditional:
		return e.eachTraditional(ctx, region, s)
	case VoronoiBFS:
		return e.eachVoronoi(ctx, region, false, s)
	case VoronoiBFSStrict:
		switch r := region.(type) {
		case *geom.PreparedPolygon:
			return e.eachShell(ctx, r, s)
		case geom.Circle:
			// A disk is convex: the segment rule is exact on it (see
			// eachVoronoi).
			return e.eachVoronoi(ctx, region, false, s)
		default:
			return e.eachVoronoi(ctx, region, true, s)
		}
	case BruteForce:
		return e.eachBruteForce(ctx, region, &s.out)
	default:
		return Stats{}, CheckMethod(m)
	}
}

// CheckMethod is nil for a defined Method and otherwise the error every
// query entry reports for it.
func CheckMethod(m Method) error {
	if m < Traditional || m > BruteForce {
		return fmt.Errorf("core: unknown method %d", int(m))
	}
	return nil
}

// eachTraditional implements the classic filter-and-refine area query: the
// index filters with the region's MBR; every candidate's record is loaded
// and validated with a containment test.
func (e *Engine) eachTraditional(ctx context.Context, region Region, s *queryScratch) (Stats, error) {
	var stats Stats
	var stopErr error
	d := e.data
	stats.IndexNodesVisited = e.idx.Window(region.Bounds(), func(id int64) bool {
		if stats.Candidates%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				stopErr = err
				return false
			}
		}
		pos, err := s.load(d, int32(id))
		if err != nil {
			stopErr = err
			return false
		}
		stats.RecordsLoaded++
		stats.Candidates++
		if region.ContainsPoint(pos) {
			return s.out.add(id, pos)
		}
		stats.RedundantValidations++
		return true
	})
	return stats, stopErr
}

// eachVoronoi implements Algorithm 1 of the paper.
//
// A seed — the nearest stored point to an interior position of the query
// region — is found by seedWalk on the Delaunay graph itself, from the data
// layer's hint (the paper asks the R-tree both methods share; the answer is
// the same site, or one exactly as near). By Voronoi Property 3 the seed is
// an internal or boundary point of the region. BFS then expands over the
// Voronoi adjacency: internal points contribute all unvisited neighbors;
// non-internal points contribute only neighbors reached by an expansion
// test — the published rule tests the connecting segment against the
// region, the strict rule tests the neighbor's Voronoi cell against it.
//
// The strict rule comes here only for a custom region. On a prepared
// polygon eachShell walks the boundary instead. On a disk run takes
// the published rule, which is exact there: the site nearest the centre is
// in the disk whenever any site is, and the chord between two results lies
// inside both the disk and the hull, so every result is in the seed's
// component.
//
// Results are emitted the moment the BFS validates them, so a streaming
// consumer observes them while the expansion is still running.
func (e *Engine) eachVoronoi(ctx context.Context, region Region, strict bool, s *queryScratch) (Stats, error) {
	d := e.data

	// Resolve the query-constant expansion state once.
	q := voronoiQuery{region: region, strict: strict, data: d, pts: d.pts, rings: d.rings, clip: d.clip}
	q.polygon, _ = region.(*geom.PreparedPolygon)

	// Line 3-4: p_seed := NN(P, arbitrary position in A), timed as the
	// seed when the query is traced.
	var seedStart time.Time
	if s.spent != nil {
		seedStart = time.Now()
	}
	seed, _ := d.seedWalk(region.InteriorPoint()) // eachRegion saw a non-empty layer
	if s.spent != nil {
		s.seeded += time.Since(seedStart)
	}

	s.mark(int32(seed))
	s.queue = append(s.queue, int32(seed))
	return voronoiBFS(ctx, q, s)
}

// voronoiQuery is the query-constant state of one Voronoi BFS, resolved
// once per query: the region and its optional test, and the data layer's
// slices — positions and ring chunks — which the loop then reads in place.
// The BFS runs the published rule on every region and the strict rule's cell
// tests on custom regions.
type voronoiQuery struct {
	region Region
	strict bool

	// polygon is the region when it is a prepared polygon, whose
	// boundary-only segment test the published rule takes (testSegment).
	polygon *geom.PreparedPolygon

	// The data layer, which a candidate's record is loaded from
	// (queryScratch.load), and its resident positions and ring chunks and
	// the rectangle the strict rule clips a cell to.
	data  *MemoryData
	pts   []geom.Point
	rings delaunay.Rings
	clip  geom.Rect
}

// testCell is the strict rule's one cell-vs-area decision. It accepts when
// the site itself is in the region (the site lies in its own cell), and only
// otherwise clips the cell — from the site's ring, into the scratch's
// two reused buffers — and tests the exact ring.
//
//vaq:noalloc
func (q *voronoiQuery) testCell(s *queryScratch, nb int32, nbPos geom.Point, stats *Stats) bool {
	stats.CellTests++
	if q.region.ContainsPoint(nbPos) {
		return true
	}
	s.cell, s.spare = voronoi.CellFromNeighbors(s.cell, s.spare, nbPos, q.rings.Ring(nb), q.pts, q.clip)
	return regionIntersectsRing(q.region, s.cell)
}

// testSegment is the published rule's segment-vs-area decision for an edge
// leaving a candidate at from that the BFS has just found outside the
// region. With the anchor outside, the closed segment meets the closed
// region exactly when it touches the region's boundary, so on a prepared
// polygon TouchesBoundary skips both containment scans of IntersectsSegment
// and decides identically.
//
//vaq:noalloc
func (q *voronoiQuery) testSegment(from, to geom.Point) bool {
	if q.polygon != nil {
		return q.polygon.TouchesBoundary(geom.Seg(from, to))
	}
	return q.region.IntersectsSegment(geom.Seg(from, to))
}

// voronoiBFS is the BFS of Algorithm 1, the one expansion loop every data
// layer takes. It builds no closures: positions and neighbor lists are the
// layer's resident slices, read in place, so the whole expansion is
// allocation-free. The frontier holds the int32 ids the adjacency stores;
// an id is widened only where it leaves the loop (the collector, a record
// load).
//
//vaq:noalloc
func voronoiBFS(ctx context.Context, q voronoiQuery, s *queryScratch) (Stats, error) {
	var stats Stats
	for head := 0; head < len(s.queue); head++ {
		if head%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return stats, err
			}
		}
		p := s.queue[head]
		pos, err := s.load(q.data, p)
		if err != nil {
			return stats, err
		}
		stats.RecordsLoaded++
		stats.Candidates++

		nbs := q.rings.Ring(p)
		if q.region.ContainsPoint(pos) {
			// Internal point: emit, then all unvisited Voronoi neighbors
			// become candidates (Property 7 bounds them to
			// internal/boundary).
			if !s.out.add(int64(p), pos) {
				return stats, nil
			}
			s.enqueueUnvisited(nbs)
			continue
		}
		stats.RedundantValidations++
		// Boundary/external point: expand only toward neighbors that pass
		// the expansion test.
		for _, nb := range nbs {
			if s.seen(nb) {
				continue
			}
			nbPos := q.pts[nb]
			var enqueue bool
			if q.strict {
				enqueue = q.testCell(s, nb, nbPos, &stats)
			} else {
				stats.SegmentTests++
				enqueue = q.testSegment(pos, nbPos)
			}
			if enqueue {
				s.mark(nb)
				s.queue = append(s.queue, nb)
			}
		}
	}
	return stats, nil
}

// eachBruteForce scans every record; it is the correctness oracle.
// It touches no index and loads no record through the store, so a traced
// scan is all PhaseExpand.
func (e *Engine) eachBruteForce(ctx context.Context, region Region, out *collector) (Stats, error) {
	var stats Stats
	var stopErr error
	bounds := region.Bounds()
	e.data.Each(func(id int64, pos geom.Point) bool {
		if stats.Candidates%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				stopErr = err
				return false
			}
		}
		stats.Candidates++
		if bounds.ContainsPoint(pos) && region.ContainsPoint(pos) {
			return out.add(id, pos)
		}
		stats.RedundantValidations++
		return true
	})
	return stats, stopErr
}
