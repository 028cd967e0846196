package vaq

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/shard"
)

// Querier is the one query surface of this package: a single logical
// operation — the area query of the paper — expressed once and implemented
// by every engine flavor. *Engine (static or sharded), *DynamicEngine
// (growing dataset), *Snapshot (epoch-pinned view) and *RemoteEngine
// (HTTP backends) all satisfy it, so code written against Querier runs
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
	// yield returning false stops the query cleanly. It is the one place a
	// result's position comes from: no flavor looks one up by id.
	Each(ctx context.Context, region Region, yield func(id int64, p Point) bool, opts ...QueryOpt) error
}

// Compile-time checks: every engine flavor implements Querier.
var (
	_ Querier = (*Engine)(nil)
	_ Querier = (*DynamicEngine)(nil)
	_ Querier = (*Snapshot)(nil)
	_ Querier = (*RemoteEngine)(nil)
)

// QueryOpt customizes one query (or batch). Options compose: the zero
// option set means "VoronoiBFS, full result set, no limit". When one
// option appears more than once the last occurrence wins, so wrappers
// (like the package-level Count) may append to a caller's options.
// Interactions between options are documented on each option and are
// identical on every backend.
type QueryOpt func(*queryPlan)

// queryPlan is the resolved option set of one query: the request shape
// every backend executes, plus where the caller wants its statistics.
type queryPlan struct {
	core.QuerySpec
	stats *Stats
}

// resolve applies opts over the defaults.
func resolve(opts []QueryOpt) queryPlan {
	p := queryPlan{QuerySpec: core.QuerySpec{Method: VoronoiBFS}}
	for _, o := range opts {
		if o != nil {
			o(&p)
		}
	}
	return p
}

// UsingMethod selects the area-query algorithm (default VoronoiBFS, the
// paper's). Traditional and BruteForce are exact; VoronoiBFSStrict is exact
// on a connected region (a polygon with holes is one; a custom Region need
// not be); VoronoiBFS, the published rule, can miss results where part of
// the region is thin against the local point spacing (README "Expansion
// rules" states both conditions exactly). Where they agree the methods
// differ in the work performed (see Stats).
func UsingMethod(m Method) QueryOpt {
	if core.CheckMethod(m) == nil {
		return methodOpts[m]
	}
	return usingMethod(m) // an unknown method fails at query time
}

// methodOpts is UsingMethod's option for each defined method, built once so
// that naming a method per query (as the serving tier does) allocates
// nothing.
var methodOpts = [...]QueryOpt{
	Traditional:      usingMethod(Traditional),
	VoronoiBFS:       usingMethod(VoronoiBFS),
	VoronoiBFSStrict: usingMethod(VoronoiBFSStrict),
	BruteForce:       usingMethod(BruteForce),
}

func usingMethod(m Method) QueryOpt {
	return func(p *queryPlan) { p.Method = m }
}

// CountOnly skips materializing the result slice: Query returns a nil
// slice and the match count is reported in Stats.ResultSize (pair with
// WithStatsInto, or use the package-level Count helper). On QueryAll the
// per-region slices stay nil and the aggregate count lands in
// Stats.ResultSize; Each ignores it.
//
// Interaction, identical on every backend: with Reuse, the buffer is a
// no-op — nothing is materialized and Query returns nil, not buf[:0].
func CountOnly() QueryOpt {
	return func(p *queryPlan) { p.CountOnly = true }
}

// WithStatsInto writes the query's statistics into st — per-query work
// counters for Query and Each, the per-query sum for QueryAll. The write
// happens on every outcome, including errors (partial work) and
// cancellation, so callers can observe how far a cancelled query got.
// Given more than once, only the last st is written.
func WithStatsInto(st *Stats) QueryOpt {
	return func(p *queryPlan) { p.stats = st }
}

// WithTraceInto records the query's timeline into tr: its total time,
// candidate-generation seed, BFS (or scan) expansion, page fetches, the
// gather merge (the ascending sort, when one partition answered), and the
// fan-out marker — how many partitions the query reached. It is
// the per-query clock: Stats carries work counters only, so a repeated
// query repeats them exactly. The write happens on every outcome,
// including errors and cancellation. Each traced query resets tr first, so
// one trace value can be reused across a query loop; read it only after
// the call returns. On QueryAll the trace spans the whole batch (phase
// times sum across the batch's queries, which may run concurrently).
// Tracing is per query and needs no registry; combine with WithMetrics
// freely.
func WithTraceInto(tr *QueryTrace) QueryOpt {
	return func(p *queryPlan) { p.Trace = tr }
}

// Reuse appends results into buf (overwriting from buf[:0]) instead of
// allocating a fresh slice, letting a query loop recycle one buffer.
// Ignored by QueryAll (one buffer cannot back a batch of independent
// results) and by Each (which materializes nothing); a no-op under
// CountOnly, which materializes nothing either.
func Reuse(buf []int64) QueryOpt {
	return func(p *queryPlan) { p.Dest = buf }
}

// Count is a convenience over any Querier: the match count of an area
// query, without materializing results, on any backend. It is exactly
// Query with CountOnly appended — caller options resolve once and keep
// their documented semantics: a WithStatsInto receives the query's
// statistics (the count is Stats.ResultSize), a Reuse buffer is a no-op
// as on any CountOnly query, and a caller's own CountOnly is redundant
// rather than conflicting.
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

// querier is the one Querier body. Engine, RemoteEngine and Snapshot embed
// it and differ only in the partitions behind its scatter-gather kernel —
// in-process shards (one for NewEngine), HTTP backends, or a dynamic
// epoch's engine; everything between a caller and the kernel — option
// resolution, region admission, the WithStatsInto handoff, the trace and
// the registry observation — is written here once.
type querier struct {
	k      *shard.Engine
	flavor string        // metric and trace label
	qm     *queryMetrics // nil without WithMetrics
}

// newQuerier resolves what cfg asks of every flavor — the registry's
// per-query handles; the constructor then attaches the kernel.
func newQuerier(cfg *config, flavor string) querier {
	return querier{flavor: flavor, qm: newQueryMetrics(cfg.metrics, flavor)}
}

// Len returns the number of stored points.
func (q *querier) Len() int { return q.k.Len() }

// Bounds returns the engine's universe rectangle — for a RemoteEngine, the
// union of its backends' universes (not of their pruning keys). A query
// region must lie inside it (ErrOutsideUniverse).
func (q *querier) Bounds() Rect { return q.k.Bounds() }

// begin starts the per-query clock when instrumentation is on — a registry
// handle set, a caller trace, or both. The zero time means "off"; end does
// no more than the stats handoff on it, so the uninstrumented path performs
// no clock reads.
func (q *querier) begin(p *queryPlan) time.Time {
	if q.qm == nil && p.Trace == nil {
		return time.Time{}
	}
	p.Trace.Begin(q.flavor, p.Method.String())
	return time.Now()
}

// admit is the one door to the kernel, on Query, QueryAll and Each of every
// flavor. It returns the region the kernel runs and whether that is not
// region: a Polygon or *Polygon comes out prepared, a *Circle as its Circle,
// anything else as it is. Then, before the kernel is touched, a polygon must
// be one NewPolygon and AddHole would build (Prepare records CheckPolygon's
// verdict), checked before the interior point, which a non-finite vertex
// would panic. Next the region's MBR and interior point must be finite — a
// seed walk toward NaN stops where it started — the interior point must lie
// in the MBR, as a custom region's need not, and the MBR inside the
// universe: the part of an escaping region inside it need not be connected,
// and a Voronoi expansion from one seed reaches one component. Only a
// DynamicEngine built over the empty rectangle has no universe; it refuses
// every insert, so it answers every finite region with ErrNoData. Last, on a
// RemoteEngine the region must have a wire form (ErrCustomRegion).
func (q *querier) admit(region Region) (admitted Region, changed bool, err error) {
	switch r := region.(type) {
	case geom.Polygon:
		region, changed = geom.Prepare(r), true
	case *geom.Polygon:
		region, changed = geom.Prepare(*r), true
	case *geom.Circle:
		region, changed = *r, true
	}
	if pp, ok := region.(*geom.PreparedPolygon); ok && pp.Err() != nil {
		return nil, false, fmt.Errorf("vaq: query polygon: %w", pp.Err())
	}
	mbr, seed := region.Bounds(), region.InteriorPoint()
	if !finite(mbr.MinX, mbr.MinY, mbr.MaxX, mbr.MaxY, seed.X, seed.Y) {
		return nil, false, fmt.Errorf("vaq: query area with bounds %v and interior point %v has a NaN or infinite coordinate: %w", mbr, seed, ErrOutsideUniverse)
	}
	if !mbr.ContainsPoint(seed) {
		return nil, false, fmt.Errorf("vaq: query area with bounds %v has its interior point %v outside them: %w", mbr, seed, ErrOutsideUniverse)
	}
	u := q.k.Bounds()
	if u.IsEmpty() {
		return nil, false, ErrNoData
	}
	if !u.ContainsRect(mbr) {
		return nil, false, fmt.Errorf("vaq: query area %v exceeds the engine universe %v: %w", mbr, u, ErrOutsideUniverse)
	}
	if q.flavor == flavorRemote && !hasWireForm(region) {
		return nil, false, fmt.Errorf("vaq: a %T has no wire form: %w", region, ErrCustomRegion)
	}
	return region, changed, nil
}

// hasWireForm reports whether wire.EncodeRegion encodes an admitted region:
// a prepared polygon or a circle.
func hasWireForm(region Region) bool {
	switch region.(type) {
	case *geom.PreparedPolygon, geom.Circle:
		return true
	}
	return false
}

// finite reports whether no v is NaN or ±Inf (v-v is 0 for exactly the
// finite values).
func finite(vs ...float64) bool {
	for _, v := range vs {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// singleQuery is end's batch size for Query and Each.
const singleQuery = -1

// end is the one exit of Query, QueryAll and Each: the WithStatsInto
// handoff, on every outcome, then what begin started — the trace's Finish
// and the registry observation, as a batch of that many regions unless
// batch is singleQuery.
func (q *querier) end(p *queryPlan, start time.Time, batch int, st *Stats, err error) {
	if p.stats != nil {
		*p.stats = *st
	}
	if start.IsZero() {
		return
	}
	d := time.Since(start)
	p.Trace.Finish(d, st.Candidates, st.ResultSize)
	if batch == singleQuery {
		q.qm.observe(p.Method, d, st, err)
	} else {
		q.qm.observeBatch(p.Method, batch, d, st, err)
	}
}

// Query implements Querier.
func (q *querier) Query(ctx context.Context, region Region, opts ...QueryOpt) ([]int64, error) {
	p := resolve(opts)
	start := q.begin(&p)
	var ids []int64
	var st Stats
	region, _, err := q.admit(region)
	if err == nil {
		ids, st, err = q.k.QueryRegionSpec(ctx, region, p.QuerySpec)
	}
	q.end(&p, start, singleQuery, &st, err)
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// QueryAll implements Querier. The kernel prunes the regions per
// partition: in process every (region, surviving partition) pair is one
// worker-pool task, so batches exploit intra- and inter-query parallelism
// at once; over HTTP each backend answers the regions that reach it in one
// round trip. On a DynamicEngine the whole batch runs against one pinned
// epoch: every query in it sees the same dataset even while inserts
// continue.
func (q *querier) QueryAll(ctx context.Context, regions []Region, opts ...QueryOpt) ([][]int64, error) {
	p := resolve(opts)
	start := q.begin(&p)
	var out [][]int64
	var st Stats
	var err error
	admitted, copied := regions, false // cloned once admit changes a region
	for i, region := range regions {
		region, changed, aerr := q.admit(region)
		if aerr != nil {
			err = fmt.Errorf("vaq: batch query %d: %w", i, aerr)
			break
		}
		if changed {
			if !copied {
				admitted, copied = slices.Clone(regions), true
			}
			admitted[i] = region
		}
	}
	if err == nil {
		out, st, err = q.k.QueryRegionsSpec(ctx, admitted, p.QuerySpec)
	}
	q.end(&p, start, len(regions), &st, err)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Each implements Querier. On a partitioned engine the partitions stream
// one after another, each in its own discovery order; global ids from
// different partitions interleave, so no overall id ordering is implied,
// and a partition failure mid-stream ends the stream with its error.
func (q *querier) Each(ctx context.Context, region Region, yield func(id int64, p Point) bool, opts ...QueryOpt) error {
	p := resolve(opts)
	start := q.begin(&p)
	var st Stats
	region, _, err := q.admit(region)
	if err == nil {
		st, err = q.k.EachRegion(ctx, region, p.QuerySpec, yield)
	}
	q.end(&p, start, singleQuery, &st, err)
	return err
}

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
