package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/storage"
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

// eachRegion dispatches to the method implementations after the shared
// empty-data and cancellation checks. The first reads the data layer, not
// the index, so only a Traditional query makes a dynamic epoch pack its
// R-tree.
func (e *Engine) eachRegion(ctx context.Context, region Region, m Method, tr *obs.QueryTrace, s *queryScratch) (Stats, error) {
	if e.data.Len() == 0 {
		return Stats{}, ErrNoData
	}
	if err := ctx.Err(); err != nil {
		// An already-cancelled context returns promptly on every method,
		// before any index or record work.
		return Stats{}, err
	}
	switch m {
	case Traditional:
		return e.eachTraditional(ctx, region, tr, &s.out)
	case VoronoiBFS:
		return e.eachVoronoi(ctx, region, false, tr, s)
	case VoronoiBFSStrict:
		switch r := region.(type) {
		case *geom.PreparedPolygon:
			return e.eachShell(ctx, r.Polygon(), r, tr, s)
		case geom.Polygon:
			return e.eachShell(ctx, r, r, tr, s)
		case geom.Circle:
			// A disk is convex: the segment rule is exact on it (see
			// eachVoronoi).
			return e.eachVoronoi(ctx, region, false, tr, s)
		default:
			return e.eachVoronoi(ctx, region, true, tr, s)
		}
	case BruteForce:
		return e.eachBruteForce(ctx, region, tr, &s.out)
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
func (e *Engine) eachTraditional(ctx context.Context, region Region, tr *obs.QueryTrace, out *collector) (Stats, error) {
	var stats Stats
	var stopErr error
	// Tracing splits the scan into record loads (PhasePageFetch) and
	// everything else (PhaseExpand: the index window walk plus the
	// containment refinement). A record is loaded as the Voronoi BFS loads
	// it: the resident position, or a page fetch, timed under tracing, when
	// the layer has a store.
	traced := tr != nil
	pts, store := e.data.pts, e.data.store
	var fetched time.Duration
	if traced {
		scanStart := time.Now()
		defer func() {
			tr.Add(obs.PhasePageFetch, fetched)
			tr.Add(obs.PhaseExpand, time.Since(scanStart)-fetched)
		}()
	}
	stats.IndexNodesVisited = e.idx.Window(region.Bounds(), func(id int64) bool {
		if stats.Candidates%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				stopErr = err
				return false
			}
		}
		var pos geom.Point
		if store == nil {
			pos = pts[id]
		} else {
			var err error
			if pos, err = fetch(store, id, traced, &fetched); err != nil {
				stopErr = fmt.Errorf("core: loading candidate %d: %w", id, err)
				return false
			}
		}
		stats.RecordsLoaded++
		stats.Candidates++
		if region.ContainsPoint(pos) {
			return out.add(id, pos)
		}
		stats.RedundantValidations++
		return true
	})
	return stats, stopErr
}

// fetch is a store-backed layer's record load: it reads id's position off
// the record's page through the buffer pool and, when traced, adds the time
// it took to *spent.
//
//vaq:noalloc
func fetch(store *storage.Store, id int64, traced bool, spent *time.Duration) (geom.Point, error) {
	if !traced {
		return store.GetPosition(id)
	}
	t0 := time.Now()
	pos, err := store.GetPosition(id)
	*spent += time.Since(t0)
	return pos, err
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
// polygon eachShell walks the boundary instead. On a disk eachRegion runs
// the published rule, which is exact there: the site nearest the centre is
// in the disk whenever any site is, and the chord between two results lies
// inside both the disk and the hull, so every result is in the seed's
// component.
//
// Results are emitted the moment the BFS validates them, so a streaming
// consumer observes them while the expansion is still running.
func (e *Engine) eachVoronoi(ctx context.Context, region Region, strict bool, tr *obs.QueryTrace, s *queryScratch) (Stats, error) {
	var stats Stats
	traced := tr != nil
	d := e.data

	// Resolve the query-constant expansion state once.
	q := voronoiQuery{region: region, strict: strict, traced: traced,
		pts: d.pts, rings: d.rings, clip: d.clip, store: d.store, stored: int32(d.last)}
	if !strict {
		q.boundary, _ = region.(BoundaryToucher)
	}

	// Line 3-4: p_seed := NN(P, arbitrary position in A).
	var seedStart time.Time
	if traced {
		seedStart = time.Now()
	}
	seed, _ := d.seedWalk(region.InteriorPoint()) // eachRegion saw a non-empty layer
	var bfsStart time.Time
	if traced {
		tr.Add(obs.PhaseSeed, time.Since(seedStart))
		bfsStart = time.Now()
	}

	s.mark(int32(seed))
	s.queue = append(s.queue, int32(seed))

	stats, fetched, err := voronoiBFS(ctx, q, s, stats)
	if traced {
		// The BFS splits into record loads (PhasePageFetch) and the
		// expansion proper (PhaseExpand); the loop accrues fetch time and
		// funnels every exit path through here.
		tr.Add(obs.PhasePageFetch, fetched)
		tr.Add(obs.PhaseExpand, time.Since(bfsStart)-fetched)
	}
	return stats, err
}

// voronoiQuery is the query-constant state of one Voronoi BFS, resolved
// once per query: the region and its optional test, and the data layer's
// slices — positions and ring chunks — which the loop then reads in place.
// The BFS runs the published rule on every region and the strict rule's cell
// tests on custom regions.
type voronoiQuery struct {
	region Region
	strict bool
	traced bool

	// boundary is the region's boundary-only segment test, when it has one
	// (published rule; see testSegment).
	boundary BoundaryToucher

	// The data layer: resident positions and ring chunks, the rectangle
	// the strict rule clips a cell to, and the store a candidate's record is
	// fetched from (nil: the record is its resident position, read with no
	// error branch and no clock pair under tracing). A store holds the
	// records of ids below stored; the fence sites above have none.
	pts    []geom.Point
	rings  delaunay.Rings
	clip   geom.Rect
	store  *storage.Store
	stored int32
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
// region exactly when it touches the region's boundary, so a region that
// can test its boundary alone skips both containment scans of
// IntersectsSegment and decides identically.
//
//vaq:noalloc
func (q *voronoiQuery) testSegment(from, to geom.Point) bool {
	if q.boundary != nil {
		return q.boundary.TouchesBoundary(geom.Seg(from, to))
	}
	return q.region.IntersectsSegment(geom.Seg(from, to))
}

// voronoiBFS is the BFS of Algorithm 1, the one expansion loop every data
// layer takes. It builds no closures: positions and neighbor lists are the
// layer's resident slices, read in place, so the whole expansion is
// allocation-free. The frontier holds the int32 ids the adjacency stores;
// an id is widened only where it leaves the loop (the collector, a page
// fetch). stats travels by value so the caller's copy never escapes;
// fetched is the accrued record-load time (for tracing).
//
//vaq:noalloc
func voronoiBFS(ctx context.Context, q voronoiQuery, s *queryScratch, stats Stats) (Stats, time.Duration, error) {
	var fetched time.Duration
	for head := 0; head < len(s.queue); head++ {
		if head%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return stats, fetched, err
			}
		}
		p := s.queue[head]
		var pos geom.Point
		if q.store == nil || p >= q.stored {
			pos = q.pts[p]
		} else {
			var err error
			if pos, err = fetch(q.store, int64(p), q.traced, &fetched); err != nil {
				//vaqvet:ignore noalloc cold failure path; the wrap allocates only when a record load already failed
				return stats, fetched, fmt.Errorf("core: loading candidate %d: %w", p, err)
			}
		}
		stats.RecordsLoaded++
		stats.Candidates++

		nbs := q.rings.Ring(p)
		if q.region.ContainsPoint(pos) {
			// Internal point: emit, then all unvisited Voronoi neighbors
			// become candidates (Property 7 bounds them to
			// internal/boundary).
			if !s.out.add(int64(p), pos) {
				return stats, fetched, nil
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
	return stats, fetched, nil
}

// eachBruteForce scans every record; it is the correctness oracle.
func (e *Engine) eachBruteForce(ctx context.Context, region Region, tr *obs.QueryTrace, out *collector) (Stats, error) {
	var stats Stats
	var stopErr error
	// The whole scan is one expansion phase: brute force touches no index
	// and loads no records through the store.
	if tr != nil {
		scanStart := time.Now()
		defer func() { tr.Add(obs.PhaseExpand, time.Since(scanStart)) }()
	}
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
