// Package vaq (Voronoi Area Query) is the public API of this repository: a
// reproduction of "Area Queries Based on Voronoi Diagrams" (Yang Li, ICDE
// 2020, arXiv:1912.00426).
//
// An area query retrieves every stored point inside a query polygon. The
// classic implementation filters through a spatial index with the polygon's
// minimum bounding rectangle and refines each candidate with a
// point-in-polygon test; for irregular (thin, concave) polygons most
// candidates are wasted work. The paper's algorithm instead seeds from the
// nearest neighbor of a point inside the polygon and grows the candidate
// set across the Voronoi/Delaunay adjacency, producing candidates
// proportional to the result plus a thin boundary shell.
//
// # Quick start
//
// Every engine flavor implements one interface, Querier: one query
// operation, one request shape, context-aware, on every backend.
//
//	points := vaq.UniformPoints(rand.New(rand.NewSource(1)), 100_000, vaq.UnitSquare())
//	eng, err := vaq.NewEngine(points, vaq.UnitSquare())
//	if err != nil { ... }
//	area := vaq.PolygonRegion(vaq.MustPolygon([]vaq.Point{
//		{X: 0.1, Y: 0.1}, {X: 0.4, Y: 0.2}, {X: 0.2, Y: 0.5}}))
//
//	ids, err := eng.Query(ctx, area)                           // Voronoi method (the paper's)
//	var st vaq.Stats
//	ids, err = eng.Query(ctx, area,                            // per-query options
//		vaq.UsingMethod(vaq.Traditional), vaq.WithStatsInto(&st))
//	n, err := vaq.Count(ctx, eng, area)                        // count without materializing
//	results, err := eng.QueryAll(ctx, regions)                 // parallel batch
//	err = eng.Each(ctx, area, func(id int64, p vaq.Point) bool {
//		return true                                            // streamed as the BFS discovers
//	})
//
// Streaming also comes in range-over-func form:
//
//	seq, errf := vaq.Results(ctx, eng, area)
//	for id, p := range seq {
//		_ = p // discovery order, while the BFS expands
//		_ = id
//	}
//	if err := errf(); err != nil { ... }
//
// One contract holds on every flavor. A region whose bounding rectangle
// escapes the engine's universe is refused with ErrOutsideUniverse; on any
// other, every method returns the same result set, in ascending id order
// on every backend — VoronoiBFSStrict on every polygon and every connected
// region, and the published VoronoiBFS except where the region is thin
// against the local point spacing (see UsingMethod). Stats expose the work
// performed (candidates, redundant validations, index node visits and record
// loads; Engine.IOStats reports WithStore's page IO). Cancelling ctx aborts
// the query (or the un-started remainder of a batch) and returns ctx.Err().
//
// # Concurrency model
//
// Every Querier backend is safe for concurrent use from any number of
// goroutines. An Engine is immutable after NewEngine (or NewShardedEngine)
// returns: the spatial index, the Voronoi topology and the point data of
// every shard are never modified by
// queries, and all per-query scratch state is pooled internally. Engines
// built WithStore are included: the record store is immutable and its
// buffer pool partitions the LRU state and counters over per-page lock
// shards (WithBufferPoolShards tunes the count), so concurrent loads only
// contend when they land on one shard at the same instant. A page is
// loaded under its shard's lock — the store lives in memory, a load is a
// slice index — so two goroutines missing on one page count one read and
// one hit.
//
// A DynamicEngine is safe for concurrent use via epoch snapshots: Insert
// mutates writer-private structures under an internal mutex (concurrent
// inserters serialize) and each query runs against an immutable snapshot
// of the epoch current when it started, so queries never observe a
// half-applied insert and any query started after an Insert returns is
// guaranteed to see it. Queries between writes share the published
// snapshot lock-free; the first query after a write republishes it — the
// previous epoch's Voronoi adjacency patched where the inserts since
// changed it, serialized with the writer, so that one query and any
// concurrent Insert briefly contend.
// Snapshot() pins one epoch explicitly for multi-query consistency.
//
// QueryAll additionally runs the batch itself in parallel on a bounded
// worker pool — WithParallelism(n) sets the pool size (default GOMAXPROCS;
// 1 keeps batches on the calling goroutine).
//
// # Observability
//
// Attach a MetricsRegistry with WithMetrics to any flavor and every layer
// reports in: query counts, latency percentiles, errors and cancellations
// by method; batch and worker-pool behavior (tasks, claim waits, worker
// busy skew); shard fan-out and per-shard straggler latency; buffer-pool
// counters; and, on dynamic engines, epoch-publish latency and snapshot
// age. Read it with Snapshot or serve it over HTTP with MetricsHandler
// (JSON or Prometheus text). For a single query's anatomy, WithTraceInto
// records its phase timeline (seed, expansion, page fetches, merge). Both
// are strictly opt-in: without them the query path performs no clock reads
// and no atomic traffic beyond what the engine already did.
//
// To scale any dataset past one engine's construction and query cost,
// partition it with NewShardedEngine: n Hilbert-coherent shards, each an
// independent engine with its own index, topology and store, queried by
// scatter-gather with shard-MBR pruning. NewEngine is the same Engine with
// one shard; every flavor answers through that one scatter-gather kernel.
//
// # Memory layout
//
// An engine retains exactly what its queries read, in flat
// structure-of-arrays form, and nothing of what built it. Per site that
// is: the position in one []Point (16 bytes, the one copy — Each yields
// it and the R-tree's leaves read it in place); the Voronoi adjacency
// as CSR arrays, one int32 offset plus one int32 per neighbor (about 28
// bytes — a site averages six neighbors); and, once a Traditional query has
// packed the R-tree, the site's leaf entry, an int32 id (4 bytes, plus about
// 8 for the nodes above it at fan-out 16: leaf headers, and one child
// rectangle per leaf in the internal nodes).
// The Delaunay triangulation the adjacency is derived from — quad-edge
// pool, its own point copy, vertex table, the curve order it was inserted
// in — is construction scaffolding and is released when NewEngine returns.
// It was built inside a fence of three far-away sites, which every layer
// (each shard) keeps as ordinary sites after its own: three positions,
// their three CSR rings, and an entry for each fence edge in the ring of
// each hull site it reaches — a few hundred bytes per layer. No query
// returns a fence site, and a store holds no record of one. With
// more than one shard, each shard also keeps its local-to-global id map,
// ascending int32 ids, through which its results are renamed (widened to
// int64 as they leave the shard): per site, then, 16 bytes of
// position, about 28 of CSR, 4 of id map and, once packed, about 12 of
// index. One shard keeps no id map — its ids are the global ones.
//
// No engine keeps a clipped Voronoi cell. The strict expansion rule on a
// custom region clips the cell of each neighbour it tests, from the
// positions and the adjacency above, into two buffers the query reuses;
// nothing is built ahead of a query, on any flavor or dynamic epoch. The
// R-tree is the one thing built on first use: an engine's (each shard's,
// each dynamic epoch's) first Traditional query packs it over the layer's
// positions, and an engine that runs none holds no R-tree at all.
//
// The BFS expansion tests, the boundary walk and the cell clipping read
// that dense memory in place; no query hot path allocates.
//
// # Static analysis
//
// The invariants this documentation promises — cancellation checks in
// every unbounded query loop, pooled scratch memory never escaping a
// query, mutex-guarded state accessed only under its lock, allocation-free
// hot paths, vaq_-prefixed metric names, %w-preserved error sentinels —
// are enforced mechanically, not by convention: `go run ./cmd/vaqvet
// ./...` runs the project's own analyzer suite (internal/analysis) over
// the module and CI blocks on its findings. See the README's "Static
// analysis" section for the diagnostic codes and the annotation grammar.
package vaq

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Re-exported geometry types. They alias the internal geometry kernel, so
// all methods (Polygon.ContainsPoint, Rect.Intersects, ...) are available
// on the aliases.
type (
	// Point is a location in the plane.
	Point = geom.Point
	// Rect is an axis-aligned rectangle.
	Rect = geom.Rect
	// Ring is a closed polygonal chain (no repeated closing vertex).
	Ring = geom.Ring
	// Polygon is a simple polygon, optionally with holes.
	Polygon = geom.Polygon
	// Circle is a closed disk, usable as a query region.
	Circle = geom.Circle
)

// Method selects the area-query algorithm; Stats reports per-query work.
type (
	// Method selects an area-query algorithm.
	Method = core.Method
	// Stats reports the work one query performed.
	Stats = core.Stats
	// Region is a query shape. A Polygon, a Circle and pointers to them are
	// Regions: a query prepares a Polygon or *Polygon as PolygonRegion does
	// and reads a *Circle through its pointer, so every form gets one answer.
	// Polygons and circles can share one QueryAll batch. A custom Region runs
	// on every local flavor; a RemoteEngine refuses it (ErrCustomRegion).
	Region = core.Region
)

// PolygonRegion prepares a polygon for (repeated or batched) querying, and
// checks it once: a query refuses a polygon NewPolygon or AddHole would,
// with their error; a query on a Polygon or *Polygon prepares it each call.
func PolygonRegion(pg Polygon) Region { return core.PolygonRegion(pg) }

// CircleRegion returns c as a Region; a Circle is one already.
func CircleRegion(c Circle) Region { return core.CircleRegion(c) }

// Polygons prepares a polygon slice as a Region batch for QueryAll.
func Polygons(areas []Polygon) []Region { return core.Polygons(areas) }

// The available query methods.
const (
	// Traditional is MBR window filter + point-in-polygon refinement. It is
	// the only method that reads an R-tree, and an engine packs its tree
	// on its first Traditional query, not at construction: that query (on
	// each shard it reaches, or each dynamic epoch) pays the STR pack,
	// ≈ 0.1 s at 200k points on a 2-core Xeon. Traditional queries racing
	// it wait for that one pack (a sync.Once), and none of them can be
	// cancelled midway through it. Every later one reads the packed tree.
	Traditional = core.Traditional
	// VoronoiBFS is the paper's Algorithm 1 (the default).
	VoronoiBFS = core.VoronoiBFS
	// VoronoiBFSStrict is Algorithm 1 complete at any point density. On a
	// polygon it walks each ring of the boundary straight through the
	// Delaunay triangles, placing both ends of every Delaunay edge the
	// boundary meets inside or outside by the side of it they lie on; it
	// validates only the sites placed both ways, on the boundary, or by an
	// edge through a polygon vertex, and returns the interior untested.
	// Every flavor refuses a polygon NewPolygon or AddHole would refuse, so
	// the holes lie strictly inside the outer ring and apart, and each ring
	// places sites by its own side. On a circle it runs the
	// segment expansion test of VoronoiBFS, exact on a convex region. On a
	// custom region it replaces the segment test with a Voronoi cell
	// intersection test, complete for every connected region inside the
	// universe.
	VoronoiBFSStrict = core.VoronoiBFSStrict
	// BruteForce scans every record (oracle; for testing).
	BruteForce = core.BruteForce
)

// Pt returns Point{x, y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// NewRect returns the rectangle spanning two corners given in any order.
func NewRect(x1, y1, x2, y2 float64) Rect { return geom.NewRect(x1, y1, x2, y2) }

// UnitSquare returns the [0,1]² universe used throughout the paper.
func UnitSquare() Rect { return geom.NewRect(0, 0, 1, 1) }

// NewCircle returns the closed disk with the given center and radius.
func NewCircle(center Point, r float64) Circle { return geom.NewCircle(center, r) }

// NewPolygon validates and builds a simple polygon from its outer ring.
func NewPolygon(outer []Point) (Polygon, error) { return geom.NewPolygon(outer) }

// MustPolygon is NewPolygon that panics on invalid input.
func MustPolygon(outer []Point) Polygon { return geom.MustPolygon(outer) }

// UniformPoints returns n points uniform in bounds (the paper's dataset).
func UniformPoints(rng *rand.Rand, n int, bounds Rect) []Point {
	return workload.UniformPoints(rng, n, bounds)
}

// ClusteredPoints returns n points from a Gaussian-mixture distribution,
// modeling skewed real-world data.
func ClusteredPoints(rng *rand.Rand, n, clusters int, sigma float64, bounds Rect) []Point {
	return workload.ClusteredPoints(rng, n, clusters, sigma, bounds)
}

// RandomQueryPolygon returns a random simple (usually concave) polygon of
// the given vertex count whose MBR covers querySize × area(bounds) — the
// paper's query workload.
func RandomQueryPolygon(rng *rand.Rand, vertices int, querySize float64, bounds Rect) Polygon {
	return workload.RandomPolygon(rng, workload.PolygonConfig{
		Vertices:  vertices,
		QuerySize: querySize,
	}, bounds)
}

// RectangleQueryPolygon returns an axis-aligned rectangular query area of
// the given aspect ratio covering querySize × area(bounds) — the
// traditional method's best case, for ablations.
func RectangleQueryPolygon(rng *rand.Rand, querySize, aspect float64, bounds Rect) Polygon {
	return workload.RectanglePolygon(rng, querySize, aspect, bounds)
}

// StoreConfig configures the simulated paged object store (see WithStore).
type StoreConfig = core.StoreConfig

// Option customizes NewEngine.
type Option func(*config)

type config struct {
	store       *StoreConfig
	parallelism int
	shards      int
	metrics     *obs.Registry
	poolShards  int
	// remoteClient is DialRemote's HTTP client (nil: a plain one); local
	// constructors ignore it.
	remoteClient *http.Client
	// poolShardsSet records that WithBufferPoolShards was given, so an
	// explicit 0 ("use the GOMAXPROCS default") still overrides a
	// StoreConfig.PoolShards value.
	poolShardsSet bool
}

// WithStore backs records with a paged object store and sharded LRU
// buffer pool so refinement IO is simulated and counted. Without this
// option records are plain in-memory slices.
func WithStore(cfg StoreConfig) Option {
	return func(c *config) { s := cfg; c.store = &s }
}

// WithBufferPoolShards sets the store buffer pool's lock-shard count
// (StoreConfig.PoolShards; this option wins when both are given). The
// default (n <= 0) is a power of two at or above runtime.GOMAXPROCS; 1
// reproduces a single-lock pool; other values round up to a power of two,
// capped at 128, and the count never exceeds a positive PoolPages
// capacity — the per-shard capacity is ceil(PoolPages/shards), so the
// effective pool size rounds up to at most PoolPages+shards-1 pages. With
// NewShardedEngine the setting applies to every shard's private store.
// Without WithStore it has no effect.
func WithBufferPoolShards(n int) Option {
	return func(c *config) { c.poolShards, c.poolShardsSet = n, true }
}

// WithParallelism sets the worker-pool size QueryAll batches run on —
// and, for sharded engines, the pool shard construction and
// scatter-gather fan-out use. The default (n <= 0) is runtime.GOMAXPROCS;
// 1 keeps batches sequential on the calling goroutine. Store-backed
// engines participate fully: the buffer pool's lock shards keep the
// workers of a batch from serializing on one pool mutex (and sharding the
// engine still multiplies total pool capacity).
func WithParallelism(n int) Option {
	return func(c *config) { c.parallelism = n }
}

// WithShards sets the shard count NewShardedEngine partitions the dataset
// into (default 1; clamped to the point count). NewEngine ignores it.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// Engine answers area queries over a fixed point set, partitioned into
// spatially coherent shards along the Hilbert curve — one shard, the whole
// set, when built by NewEngine; n with NewShardedEngine(WithShards(n)).
// Every shard is an independent engine — its own spatial index, Voronoi
// topology and (with WithStore) record store with a private buffer pool —
// and queries run through one scatter-gather kernel: shards whose points'
// bounding rectangle misses the query's MBR are pruned (a region inside
// the universe that meets no shard answers empty, with zero Stats), the
// survivors fan out onto the worker pool (see WithParallelism) — a sole
// survivor answers on the calling goroutine — and per-shard results merge
// under a stable global id mapping. Global ids are indexes into the
// original points slice, and every query method returns the identical id
// set for any shard count, in ascending id order.
//
// One method nuance: with more than one shard, shard-local execution of
// VoronoiBFS uses the strict rule rather than the published segment rule.
// A shard's Voronoi diagram is a sub-sample of the dataset, and on its
// sparser geometry the segment heuristic can strand result islands inside
// thin concave queries; the strict rule is complete at any density on
// every polygon and every connected region. A polygon's boundary is then
// walked, with no SegmentTests; a circle, convex, keeps the segment test,
// exact on it. A single shard holds the full diagram and runs the requested
// method as is.
//
// Shard where one engine's data volume is the bottleneck: construction
// parallelizes across shards, store-backed shards multiply total
// buffer-pool capacity (each shard's pool has its own lock shards on top
// — see WithBufferPoolShards), and batch throughput scales with both
// query and shard parallelism. An Engine is immutable after construction
// and safe for concurrent use from any number of goroutines (WithStore
// engines included — their buffer pools shard their locks by page id).
type Engine struct {
	querier
}

// ShardedEngine is Engine under the name NewShardedEngine returns: code
// that names either names the one engine type.
type ShardedEngine = Engine

// newConfig applies opts over the defaults every constructor shares.
func newConfig(opts []Option) config {
	cfg := config{shards: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// checkSites is the precondition of the static constructors, checked before
// anything is built: every point lies inside bounds. A NaN or infinite
// coordinate fails the comparison too. A site outside the universe breaks
// the tiling the strict rule's completeness rests on, and a non-finite one
// has no answer in the exact predicates.
func checkSites(points []Point, bounds Rect) error {
	for i, p := range points {
		if !bounds.ContainsPoint(p) {
			return fmt.Errorf("vaq: point %d %v lies outside bounds %v: %w", i, p, bounds, ErrOutsideUniverse)
		}
	}
	return nil
}

// buildData constructs the configured record layer over points: paged
// when a store was configured.
func (c config) buildData(points []Point, bounds Rect) (*core.MemoryData, error) {
	if c.store != nil {
		scfg := *c.store
		if c.poolShardsSet {
			scfg.PoolShards = c.poolShards
		}
		return core.NewStoreData(points, bounds, scfg)
	}
	return core.NewMemoryData(points, bounds)
}

// NewEngine builds the Voronoi topology and (optionally) the record store
// over points — the spatial index waits for the first Traditional query
// (see Traditional): an Engine of one shard, flavor "static" in
// metrics and traces. WithShards does not apply. bounds must contain every
// point (ErrOutsideUniverse otherwise); the points must have pairwise
// distinct coordinates.
func NewEngine(points []Point, bounds Rect, opts ...Option) (*Engine, error) {
	return newEngine(points, bounds, flavorStatic, append(opts[:len(opts):len(opts)], WithShards(1)))
}

// NewShardedEngine partitions points into n shards (WithShards; default 1)
// by Hilbert order and builds every shard's engine in parallel, flavor
// "sharded" in metrics and traces. All NewEngine options apply, per shard:
// each shard gets its own R-tree (packed by the first Traditional query
// that reaches the shard) and — with WithStore — its own paged
// record store. bounds must contain every point (ErrOutsideUniverse
// otherwise); points must have pairwise distinct coordinates.
func NewShardedEngine(points []Point, bounds Rect, opts ...Option) (*ShardedEngine, error) {
	return newEngine(points, bounds, flavorSharded, opts)
}

// newEngine is the one constructor of a local static engine.
func newEngine(points []Point, bounds Rect, flavor string, opts []Option) (*Engine, error) {
	if err := checkSites(points, bounds); err != nil {
		return nil, err
	}
	cfg := newConfig(opts)
	e := &Engine{querier: newQuerier(&cfg, flavor)}
	k, err := shard.New(points, bounds, shard.Config{
		Shards:      cfg.shards,
		Parallelism: cfg.parallelism,
		Metrics:     newShardMetrics(cfg.metrics, flavor),
		Build: func(_ int, pts []Point, bounds Rect) (*core.Engine, error) {
			d, err := cfg.buildData(pts, bounds)
			if err != nil {
				return nil, err
			}
			return core.NewEngine(core.LazyRTreeIndex(d), d), nil
		},
	})
	if err != nil {
		return nil, fmt.Errorf("vaq: %w", err)
	}
	e.k = k
	if _, stored := e.poolStats(); stored && cfg.metrics != nil {
		registerPoolMetrics(cfg.metrics, flavor, func() storage.BufferPoolStats {
			st, _ := e.poolStats()
			return st
		})
	}
	return e, nil
}

// NumShards returns the shard count (after clamping to the point count).
func (e *Engine) NumShards() int { return e.k.NumShards() }

// ShardSizes returns the per-shard point counts.
func (e *Engine) ShardSizes() []int { return e.k.ShardSizes() }

// ShardBounds returns the tight bounding rectangle of one shard's points.
func (e *Engine) ShardBounds(si int) Rect { return e.k.ShardBounds(si) }

// DataBounds returns the bounding rectangle of the stored points, the
// union of the shards' — tighter than Bounds whenever the points do not
// reach every edge of the universe. areaserve advertises it as /v1/info's
// data_bounds, the key a RemoteEngine prunes its fan-out by.
func (e *Engine) DataBounds() Rect { return e.k.DataBounds() }

// IOStats returns the engine's cumulative simulated IO counters — buffer
// pool misses (reads) and hits, summed over every shard's private store —
// when it was built WithStore; ok is false otherwise. A query asks the pool
// for a page at its first record load there, and again only if the page
// has left the pool since, so a hit is such an ask that found the page
// resident, not a record load. The counters cover all queries since
// construction or the last ResetIOStats, across all goroutines. (A
// DynamicEngine keeps its records in memory and has no IO to report.) For
// the full pool picture (evictions, bytes, hit rate) attach a registry with
// WithMetrics.
func (e *Engine) IOStats() (reads, hits int, ok bool) {
	st, ok := e.poolStats()
	return st.PageReads, st.CacheHits, ok
}

// ResetIOStats zeroes every shard's IO counters (no-op without WithStore);
// registry collectors registered by WithMetrics observe the same reset.
func (e *Engine) ResetIOStats() {
	for si := range e.k.NumShards() {
		e.k.ShardEngine(si).Data().ResetIOStats()
	}
}

// poolStats sums the shards' buffer-pool counters; ok is false unless
// every shard is store-backed.
func (e *Engine) poolStats() (agg storage.BufferPoolStats, ok bool) {
	for si := range e.k.NumShards() {
		d := e.k.ShardEngine(si).Data()
		if d.Store() == nil {
			return storage.BufferPoolStats{}, false
		}
		st := d.IOStats()
		agg.PageReads += st.PageReads
		agg.CacheHits += st.CacheHits
		agg.Evictions += st.Evictions
		agg.BytesRead += st.BytesRead
	}
	return agg, true
}

// Sentinel errors, matchable with errors.Is. They distinguish caller
// errors from engine failure.
var (
	// ErrNoData is returned by every query entry point (Query, QueryAll,
	// Each, Count) when the engine holds no points, and by NewEngine and
	// NewShardedEngine for an empty point set.
	ErrNoData = core.ErrNoData
	// ErrOutsideUniverse is returned by Query, QueryAll and Each on every
	// flavor when the region's bounding rectangle escapes the engine's
	// universe (Bounds), and by NewEngine, NewShardedEngine and
	// DynamicEngine.Insert for a point outside it (a NaN or infinite
	// coordinate is outside). The region is refused, not
	// clipped: the part of it inside the universe need not be connected, and
	// Algorithm 1 reaches one component. A custom Region whose interior
	// point lies outside its own bounding rectangle is refused with it too.
	ErrOutsideUniverse = core.ErrOutsideUniverse
	// ErrCustomRegion is returned by a RemoteEngine's Query, QueryAll and
	// Each for a Region that is neither a Polygon (prepared or plain) nor a
	// Circle: the wire carries only those. No request is sent, and Dropped
	// does not count it.
	ErrCustomRegion = errors.New("vaq: a remote engine answers polygons and circles only")
	// NewPolygon and Polygon.AddHole return these, and every query wraps them
	// for a Polygon literal those two would refuse, sending no request.
	ErrNonFinite      = geom.ErrNonFinite      // a vertex is NaN or infinite
	ErrTooFewVertices = geom.ErrTooFewVertices // a ring has under 3 distinct vertices
	ErrZeroArea       = geom.ErrZeroArea       // a ring encloses no area
	ErrSelfIntersect  = geom.ErrSelfIntersect  // a ring meets itself, or a hole is out of place
)

// DynamicEngine answers area queries over a dataset that grows point by
// point — the update capability the paper leaves as future work. Points
// are inserted into a dynamic Delaunay triangulation (incremental
// Guibas–Stolfi insertion); queries run at any moment with any method.
//
// A DynamicEngine is safe for concurrent use. It follows an epoch-snapshot
// scheme: Insert mutates writer-private structures under an internal mutex
// (so concurrent inserters serialize rather than race), and every query
// pins the immutable engine of the epoch current when it started —
// published through an atomic pointer — so any number of goroutines can
// query while insertion proceeds and never observe a half-applied update.
// Write visibility: a query started after Insert returns is guaranteed to
// reflect that insert; a query concurrent with an Insert sees either the
// epoch before it or after it, never a mixture. The first query after a
// write pays a one-time snapshot publish (serialized with the writer): the
// Voronoi adjacency as fixed-size ring chunks, those holding a changed ring
// rebuilt and the rest shared with the previous epoch — about 20 µs at 50k
// points after one insert, while the very first publish walks every ring,
// about 9 ms. The writer keeps no R-tree: an epoch's
// first Traditional query STR-packs one over the epoch's points, about
// 35 ms at 60k points, once per epoch that asks; no other method builds
// anything. All queries between writes share the published epoch for free.
// Use Snapshot to pin one epoch across several queries — e.g. a result
// query and its Count, or a query and the brute-force oracle validating it.
type DynamicEngine struct {
	d *core.DynamicEngine
	// proto is every Snapshot's querier, less the kernel each one builds
	// over its epoch; parallelism and met are what that kernel runs with.
	proto       querier
	universe    Rect
	parallelism int
	met         *shard.Metrics
	// snap is the Snapshot wrapping the epoch engine most recently pinned,
	// reused for as long as that one stays the published epoch.
	snap atomic.Pointer[Snapshot]
}

// NewDynamicEngine returns an empty dynamic engine. All inserted points
// and query areas must lie within universe. Of the Engine options only
// WithParallelism (it sizes the QueryAll worker pool) and WithMetrics
// (adding epoch-publish latency and snapshot-age collectors) apply; the
// others describe static construction and are ignored.
func NewDynamicEngine(universe Rect, opts ...Option) *DynamicEngine {
	cfg := newConfig(opts)
	e := &DynamicEngine{
		d:           core.NewDynamicEngine(universe),
		proto:       newQuerier(&cfg, flavorDynamic),
		universe:    universe,
		parallelism: cfg.parallelism,
		met:         newShardMetrics(cfg.metrics, flavorDynamic),
	}
	if cfg.metrics != nil {
		registerDynamicMetrics(cfg.metrics, e.d)
	}
	return e
}

// Insert adds a point, returning its id. Re-inserting an existing
// coordinate returns the existing id with inserted == false; inserting a
// point outside the universe fails with ErrOutsideUniverse. Concurrent
// Inserts are serialized internally; in-flight queries are never blocked.
func (e *DynamicEngine) Insert(p Point) (id int64, inserted bool, err error) {
	return e.d.Insert(p)
}

// Snapshot pins the current epoch and returns its immutable view. All
// queries on the snapshot see exactly the points inserted before this
// call, regardless of concurrent or later inserts. Repeated Snapshot
// calls between writes return the same published view at no cost.
func (e *DynamicEngine) Snapshot() *Snapshot {
	eng := e.d.Snapshot()
	cur := e.snap.Load()
	if cur != nil && cur.eng == eng {
		return cur
	}
	s := &Snapshot{querier: e.proto, eng: eng}
	s.k = shard.OverEngine(eng, e.universe, e.parallelism, e.met)
	if !e.snap.CompareAndSwap(cur, s) {
		// A concurrent pinner published first; share its wrapper unless a
		// write came between and it pinned a later epoch.
		if won := e.snap.Load(); won.eng == eng {
			return won
		}
	}
	return s
}

// Len returns the number of inserted points at the current epoch.
func (e *DynamicEngine) Len() int { return e.d.Len() }

// Epoch returns the current epoch — the number of accepted inserts so
// far, which is Len. Snapshots report the epoch they pinned.
func (e *DynamicEngine) Epoch() uint64 { return uint64(e.d.Len()) }

// Bounds returns the engine's universe rectangle; a query region must lie
// inside it (ErrOutsideUniverse).
func (e *DynamicEngine) Bounds() Rect { return e.universe }

// Snapshot is an immutable, epoch-pinned view of a DynamicEngine: the
// engine its epoch published. Every query on it runs against exactly the
// points inserted before it was taken — no matter how many inserts have
// happened since — so a method query, its Count and a brute-force oracle
// all agree when run on one Snapshot, and its Len is the epoch. Snapshots
// are safe for concurrent use from any number of goroutines and remain
// valid (and frozen) indefinitely.
type Snapshot struct {
	querier              // the parent DynamicEngine's metrics, over a kernel on eng
	eng     *core.Engine // the pinned epoch
}

// Epoch returns the epoch the snapshot pinned: the number of inserts it
// reflects, which is Len.
func (s *Snapshot) Epoch() uint64 { return uint64(s.Len()) }
