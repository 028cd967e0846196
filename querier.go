package vaq

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Querier is the one query surface of this package: a single logical
// operation — the area query of the paper — expressed once and implemented
// by every engine flavor. *Engine (static), *ShardedEngine
// (scatter-gather), *DynamicEngine (growing dataset) and *Snapshot
// (epoch-pinned view) all satisfy it, so code written against Querier runs
// unchanged on any backend.
//
// All three methods accept a context.Context and honor cancellation and
// deadlines identically on every backend: cancellation is checked at
// candidate-generation boundaries inside a query, between queries of a
// batch, and between scatter tasks of a sharded fan-out; it surfaces as
// ctx.Err() (matchable with errors.Is against context.Canceled /
// context.DeadlineExceeded). Options the backend cannot honor per query
// (Reuse on a batch) are documented on the option.
//
// Query and QueryAll return ids in ascending order on every backend, so
// equal result sets compare byte-identical regardless of flavor or method.
// Each streams in discovery order instead — that is its point.
type Querier interface {
	// Query answers one area query over region, returning the ids of all
	// stored points inside it in ascending order.
	Query(ctx context.Context, region Region, opts ...QueryOpt) ([]int64, error)
	// QueryAll answers a batch of area queries, returning per-region
	// results aligned with regions. The batch runs on the backend's worker
	// pool (WithParallelism) and stops at the first error.
	QueryAll(ctx context.Context, regions []Region, opts ...QueryOpt) ([][]int64, error)
	// Each streams one area query: yield is called with each result id and
	// its coordinates as the algorithm discovers it — for the Voronoi
	// methods, while the BFS is still expanding — so consumers can act on
	// early results without waiting for, or materializing, the full set.
	// yield returning false stops the query cleanly.
	Each(ctx context.Context, region Region, yield func(id int64, p Point) bool, opts ...QueryOpt) error
}

// Compile-time checks: every engine flavor implements Querier.
var (
	_ Querier = (*Engine)(nil)
	_ Querier = (*ShardedEngine)(nil)
	_ Querier = (*DynamicEngine)(nil)
	_ Querier = (*Snapshot)(nil)
)

// QueryOpt customizes one query (or batch). Options compose: the zero
// option set means "VoronoiBFS, full result set, no limit". When one
// option appears more than once the last occurrence wins, so wrappers
// (like the package-level Count) may append to a caller's options.
// Interactions between options are documented on each option and are
// identical on every backend.
type QueryOpt func(*queryPlan)

// queryPlan is the resolved option set of one query.
type queryPlan struct {
	method    Method
	countOnly bool
	limit     int
	stats     *Stats
	buf       []int64
	trace     *obs.QueryTrace
}

// resolve applies opts over the defaults.
func resolve(opts []QueryOpt) queryPlan {
	p := queryPlan{method: VoronoiBFS}
	for _, o := range opts {
		if o != nil {
			o(&p)
		}
	}
	return p
}

// spec translates the plan into the internal request shape.
func (p *queryPlan) spec() core.QuerySpec {
	return core.QuerySpec{
		Method:    p.method,
		CountOnly: p.countOnly,
		Limit:     p.limit,
		Dest:      p.buf,
		Trace:     p.trace,
	}
}

// UsingMethod selects the area-query algorithm (default VoronoiBFS, the
// paper's). All methods return the same result set; they differ in the
// work performed (see Stats).
func UsingMethod(m Method) QueryOpt {
	return func(p *queryPlan) { p.method = m }
}

// CountOnly skips materializing the result slice: Query returns a nil
// slice and the match count is reported in Stats.ResultSize (pair with
// WithStatsInto, or use the package-level Count helper). On QueryAll the
// per-region slices stay nil and the aggregate count lands in
// Stats.ResultSize; Each ignores it.
//
// Interactions, identical on every backend: with Reuse, the buffer is a
// no-op — nothing is materialized and Query returns nil, not buf[:0];
// with Limit(n), the reported count is min(n, matches).
func CountOnly() QueryOpt {
	return func(p *queryPlan) { p.countOnly = true }
}

// Limit stops a query after n results (n <= 0 means unlimited). The limit
// is a global early-exit bound on every backend — a ShardedEngine returns
// at most n ids across all shards, not per shard — but which n points are
// returned is method- and backend-dependent; the returned ids are still in
// ascending order among themselves. On QueryAll the limit applies per
// region; on Each it bounds the number of yields.
//
// Interactions: with CountOnly the count is capped at n; limited queries
// bypass an attached result cache (see WithResultCache) because the
// particular n ids are not canonical.
func Limit(n int) QueryOpt {
	return func(p *queryPlan) { p.limit = n }
}

// WithStatsInto writes the query's statistics into st — per-query work
// counters for Query and Each, the per-query sum for QueryAll. The write
// happens on every outcome, including errors (partial work) and
// cancellation, so callers can observe how far a cancelled query got.
// When a Query is served from an attached result cache, st receives the
// memoized statistics of the execution that populated the entry. Given
// more than once, only the last st is written.
func WithStatsInto(st *Stats) QueryOpt {
	return func(p *queryPlan) { p.stats = st }
}

// WithTraceInto records the query's phase timeline into tr: cache lookup,
// candidate-generation seed, BFS (or scan) expansion, page fetches, and —
// on sharded engines — the gather merge, plus fan-out and cache-hit
// markers. The write happens on every outcome, including errors and
// cancellation. Each traced query resets tr first, so one trace value can
// be reused across a query loop; read it only after the call returns. On
// QueryAll the trace spans the whole batch (phase times sum across the
// batch's queries, which may run concurrently). Tracing is per query and
// needs no registry; combine with WithMetrics freely.
func WithTraceInto(tr *QueryTrace) QueryOpt {
	return func(p *queryPlan) { p.trace = tr }
}

// Reuse appends results into buf (overwriting from buf[:0]) instead of
// allocating a fresh slice, letting a query loop recycle one buffer.
// Ignored by QueryAll (one buffer cannot back a batch of independent
// results) and by Each (which materializes nothing); a no-op under
// CountOnly, which materializes nothing either. Result-cache hits honor
// it — the memoized ids are copied into buf.
func Reuse(buf []int64) QueryOpt {
	return func(p *queryPlan) { p.buf = buf }
}

// Count is a convenience over any Querier: the match count of an area
// query, without materializing results, on any backend. It is exactly
// Query with CountOnly appended — caller options resolve once and keep
// their documented semantics: a WithStatsInto receives the query's
// statistics (the count is Stats.ResultSize), Limit caps the count, a
// Reuse buffer is a no-op as on any CountOnly query, and a caller's own
// CountOnly is redundant rather than conflicting.
func Count(ctx context.Context, q Querier, region Region, opts ...QueryOpt) (int, error) {
	p := resolve(opts)
	st := p.stats
	if st == nil {
		st = new(Stats)
	}
	_, err := q.Query(ctx, region, append(append([]QueryOpt(nil), opts...), CountOnly(), WithStatsInto(st))...)
	if err != nil {
		return 0, err
	}
	return st.ResultSize, nil
}

// finishQuery applies the plan's post-processing shared by the unsharded
// backends: canonical ascending id order and the stats handoff.
func finishQuery(p *queryPlan, ids []int64, st Stats, err error) ([]int64, error) {
	if p.stats != nil {
		*p.stats = st
	}
	if err != nil {
		return nil, err
	}
	core.SortIDs(ids)
	return ids, nil
}

// finishBatch sorts each per-region result and hands off aggregate stats.
func finishBatch(p *queryPlan, out [][]int64, st Stats, err error) ([][]int64, error) {
	if p.stats != nil {
		*p.stats = st
	}
	if err != nil {
		return nil, err
	}
	for _, ids := range out {
		core.SortIDs(ids)
	}
	return out, nil
}

// Query implements Querier, consulting the result cache when one was
// attached (WithResultCache).
func (e *Engine) Query(ctx context.Context, region Region, opts ...QueryOpt) ([]int64, error) {
	p := resolve(opts)
	return cachedQuery(ctx, e.eng, flavorStatic, e.qm, e.rc, e.cacheSalt, 0, region, &p)
}

// QueryAll implements Querier.
func (e *Engine) QueryAll(ctx context.Context, regions []Region, opts ...QueryOpt) ([][]int64, error) {
	p := resolve(opts)
	start := beginQuery(e.qm, &p, flavorStatic)
	out, st, err := exec.QueryBatch(ctx, e.eng, regions, p.spec(),
		exec.Options{NumWorkers: e.parallelism, Metrics: e.qm.exec()})
	endBatch(e.qm, &p, start, len(regions), &st, err)
	return finishBatch(&p, out, st, err)
}

// Each implements Querier.
func (e *Engine) Each(ctx context.Context, region Region, yield func(id int64, p Point) bool, opts ...QueryOpt) error {
	p := resolve(opts)
	start := beginQuery(e.qm, &p, flavorStatic)
	st, err := e.eng.EachRegion(ctx, region, p.spec(), yield)
	if p.stats != nil {
		*p.stats = st
	}
	endQuery(e.qm, &p, start, &st, err)
	return err
}

// scatterGather is the Querier body ShardedEngine and RemoteEngine share:
// both are a scatter-gather kernel (package shard) over partitions — in
// process for one, behind HTTP for the other — wrapped with the result
// cache and the per-query instrumentation.
type scatterGather struct {
	k         *shard.Engine
	flavor    string
	rc        *ResultCache // nil without WithResultCache
	cacheSalt uint64
	qm        *queryMetrics // nil without WithMetrics
}

// Query implements Querier, consulting the result cache when one was
// attached. Results are in ascending global id order from the kernel's
// merge.
func (e *scatterGather) Query(ctx context.Context, region Region, opts ...QueryOpt) ([]int64, error) {
	p := resolve(opts)
	return cachedQuery(ctx, e.k, e.flavor, e.qm, e.rc, e.cacheSalt, 0, region, &p)
}

// QueryAll implements Querier. Regions are pruned per partition. In
// process every (region, surviving shard) pair is one worker-pool task, so
// batches exploit intra- and inter-query parallelism at once; over HTTP
// each backend answers the regions that reach it in one round trip.
func (e *scatterGather) QueryAll(ctx context.Context, regions []Region, opts ...QueryOpt) ([][]int64, error) {
	p := resolve(opts)
	start := beginQuery(e.qm, &p, e.flavor)
	out, st, err := e.k.QueryRegionsSpec(ctx, regions, p.spec())
	if p.stats != nil {
		*p.stats = st
	}
	endBatch(e.qm, &p, start, len(regions), &st, err)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Each implements Querier. Partitions stream one after another, each in
// its own discovery order; global ids from different partitions
// interleave, so no overall id ordering is implied. A stream always fails
// fast — a partition failure mid-stream surfaces immediately, even under
// WithDegradedFanOut.
func (e *scatterGather) Each(ctx context.Context, region Region, yield func(id int64, p Point) bool, opts ...QueryOpt) error {
	p := resolve(opts)
	start := beginQuery(e.qm, &p, e.flavor)
	st, err := e.k.EachRegion(ctx, region, p.spec(), yield)
	if p.stats != nil {
		*p.stats = st
	}
	endQuery(e.qm, &p, start, &st, err)
	return err
}

// KNearest returns the k stored points nearest to q in increasing distance
// order (ties broken by ascending global id), walking partitions in
// MINDIST order and expanding only while a partition's bounds can still
// beat the current k-th distance — one provably unable to is never
// contacted. Cancelling ctx abandons the remaining frontier (checked
// before every expansion and inside one) and returns ctx.Err() with the
// partial work in Stats.
func (e *scatterGather) KNearest(ctx context.Context, q Point, k int) ([]int64, Stats, error) {
	return e.k.KNearest(ctx, q, k)
}

// Len returns the total number of stored points.
func (e *scatterGather) Len() int { return e.k.Len() }

// Bounds returns the engine's universe rectangle — for a RemoteEngine, the
// union of its backends' advertised bounds.
func (e *scatterGather) Bounds() Rect { return e.k.Bounds() }

// Query implements Querier, against the current epoch.
func (e *DynamicEngine) Query(ctx context.Context, region Region, opts ...QueryOpt) ([]int64, error) {
	return e.Snapshot().Query(ctx, region, opts...)
}

// QueryAll implements Querier. The whole batch runs against one pinned
// epoch: every query in it sees the same dataset even while inserts
// continue.
func (e *DynamicEngine) QueryAll(ctx context.Context, regions []Region, opts ...QueryOpt) ([][]int64, error) {
	return e.Snapshot().QueryAll(ctx, regions, opts...)
}

// Each implements Querier, streaming against the epoch current when the
// call started.
func (e *DynamicEngine) Each(ctx context.Context, region Region, yield func(id int64, p Point) bool, opts ...QueryOpt) error {
	return e.Snapshot().Each(ctx, region, yield, opts...)
}

// Query implements Querier, against the pinned epoch. With a result cache
// attached (inherited from the DynamicEngine), entries are keyed by that
// epoch: queries on one snapshot hit each other's entries, and an Insert
// on the parent engine invalidates by moving later queries to new keys.
func (s *Snapshot) Query(ctx context.Context, region Region, opts ...QueryOpt) ([]int64, error) {
	p := resolve(opts)
	return cachedQuery(ctx, s.s, flavorDynamic, s.qm, s.rc, s.cacheSalt, s.s.Epoch(), region, &p)
}

// QueryAll implements Querier, all against the pinned epoch.
func (s *Snapshot) QueryAll(ctx context.Context, regions []Region, opts ...QueryOpt) ([][]int64, error) {
	p := resolve(opts)
	// The sequential paths' error contract (ErrOutsideUniverse for bad
	// areas, ErrNoData while empty), enforced before any worker spawns.
	for i, r := range regions {
		if err := s.s.CheckRegion(r); err != nil {
			err = fmt.Errorf("vaq: batch query %d: %w", i, err)
			return finishBatch(&p, nil, Stats{Method: p.method}, err)
		}
	}
	start := beginQuery(s.qm, &p, flavorDynamic)
	out, st, err := exec.QueryBatch(ctx, s.s.Engine(), regions, p.spec(),
		exec.Options{NumWorkers: s.parallelism, Metrics: s.qm.exec()})
	endBatch(s.qm, &p, start, len(regions), &st, err)
	return finishBatch(&p, out, st, err)
}

// Each implements Querier, streaming against the pinned epoch.
func (s *Snapshot) Each(ctx context.Context, region Region, yield func(id int64, p Point) bool, opts ...QueryOpt) error {
	p := resolve(opts)
	start := beginQuery(s.qm, &p, flavorDynamic)
	st, err := s.s.EachRegion(ctx, region, p.spec(), yield)
	if p.stats != nil {
		*p.stats = st
	}
	endQuery(s.qm, &p, start, &st, err)
	return err
}
