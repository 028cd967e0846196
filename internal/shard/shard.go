// Package shard partitions a point set into spatially coherent shards and
// answers area queries by scatter-gather over independent per-shard
// engines.
//
// Shards are contiguous runs of the dataset's Hilbert order (package
// hilbert), so each shard is a compact tile of the plane with a tight
// bounding rectangle. Every shard owns a full core.Engine — its own
// spatial index, Voronoi topology and (when the builder attaches one)
// record store — which restores the paper's per-query guarantees inside
// the shard while bounding per-engine data volume. A query is answered by
// pruning shards whose bounds miss the region's MBR, fanning the
// survivors onto the exec worker pool, and merging the per-shard results
// under a stable local-to-global id remapping; k-nearest-neighbor queries
// instead walk shards in MINDIST order, expanding only while a shard's
// bounds can still beat the current k-th distance.
//
// The per-shard Voronoi diagrams differ from the single-engine diagram —
// adjacency never crosses a shard boundary — but the query result does
// not: the BFS within each shard finds exactly that shard's points inside
// the region, and the union over shards is exactly the global result set.
// Results are returned in ascending global id order, identical for every
// shard count.
//
// Every query path takes a context.Context: cancellation aborts
// un-dispatched shard tasks at the worker pool (exec checks between chunk
// claims) and running per-shard queries at candidate boundaries (core),
// surfacing as ctx.Err() with partial statistics.
//
// One algorithmic consequence of partitioning: a shard's diagram is a
// sub-sample of the dataset, so its Voronoi cells are larger and its
// Delaunay segments longer. The paper's published expansion rule (expand
// across a boundary point only when the connecting segment intersects the
// region) leans on full-density geometry — on a sparse shard diagram a
// long boundary segment can step right over a thin lobe of a concave
// query, stranding a result island (observed on ~2% of 1%-area queries
// over a 200k-point dataset at 8 shards). Shard-local scatter therefore
// runs VoronoiBFS with the conservative cell-intersection expansion
// (VoronoiBFSStrict's rule), which is complete at any density; the strict
// and traditional methods are forwarded unchanged. Callers still see the
// method they asked for in Stats.Method.
package shard

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/hilbert"
	"repro/internal/obs"
)

// BuildFunc constructs the engine of one shard over its local points
// (local id i is pts[i]). bounds is the universe rectangle, shared by all
// shards so per-shard Voronoi cells clip identically to the unsharded
// engine's. The function must be safe to call concurrently for distinct
// shards; shard is the shard's index for builders that record per-shard
// state (e.g. the record store) on the side.
type BuildFunc func(shard int, pts []geom.Point, bounds geom.Rect) (*core.Engine, error)

// Config parameterizes New.
type Config struct {
	// Shards is the requested shard count, clamped to [1, len(points)].
	Shards int
	// Parallelism bounds the worker pool used for shard construction and
	// query scatter; <= 0 means runtime.GOMAXPROCS.
	Parallelism int
	// Build constructs one shard's engine; required.
	Build BuildFunc
	// Metrics, when non-nil, instruments the scatter-gather query path
	// (see Metrics). Nil disables instrumentation at one pointer
	// comparison per query.
	Metrics *Metrics
}

// Metrics instruments the scatter-gather path. Any field may be nil
// (obs metrics are nil-safe); a nil *Metrics disables instrumentation.
type Metrics struct {
	// FanOut is the distribution of surviving (scattered-to) shards per
	// query after MBR pruning; its unit is a shard count, not ns.
	FanOut *obs.Histogram
	// ShardsPruned counts shards skipped by MBR pruning.
	ShardsPruned *obs.Counter
	// ShardQueries counts per-shard scatter tasks executed.
	ShardQueries *obs.Counter
	// ShardLatency is the per-shard task latency in ns; the p99/p50 gap
	// is the straggler skew a scatter waits on.
	ShardLatency *obs.Histogram
	// Exec instruments the worker pool the scatter runs on.
	Exec *exec.Metrics
}

// oneShard is a fully built shard: its engine, the tight bounding
// rectangle of its points (the pruning key), and the local-to-global id
// remapping.
type oneShard struct {
	eng    *core.Engine
	bounds geom.Rect
	global []int64 // local id -> global id, ascending
	pts    []geom.Point
}

// Engine answers area queries over a Hilbert-partitioned point set by
// scatter-gather. Like core.Engine it is immutable after construction and
// safe for concurrent use from any number of goroutines.
type Engine struct {
	shards      []oneShard
	points      []geom.Point // global id -> position
	bounds      geom.Rect    // universe
	parallelism int
	met         *Metrics
}

// observeFanOut records one query's scatter width into the metrics and
// the trace; no-op when neither is attached.
func (e *Engine) observeFanOut(tr *obs.QueryTrace, alive int) {
	if e.met == nil && tr == nil {
		return
	}
	if e.met != nil {
		e.met.FanOut.ObserveN(uint64(alive))
		e.met.ShardsPruned.Add(uint64(len(e.shards) - alive))
	}
	tr.SetFanOut(alive)
}

// scatterOpts are the pool options every query scatter uses.
func (e *Engine) scatterOpts() exec.Options {
	opts := exec.Options{NumWorkers: e.parallelism, Chunk: 1}
	if e.met != nil {
		opts.Metrics = e.met.Exec
	}
	return opts
}

// New partitions points into cfg.Shards Hilbert-contiguous shards and
// builds every shard's engine (in parallel on the scatter pool). bounds
// must contain every point. Global ids are the indexes of points, exactly
// as in an unsharded engine over the same slice.
func New(points []geom.Point, bounds geom.Rect, cfg Config) (*Engine, error) {
	if cfg.Build == nil {
		return nil, fmt.Errorf("shard: Config.Build is required")
	}
	if len(points) == 0 {
		return nil, core.ErrNoData
	}

	sc := hilbert.NewScaler(bounds.MinX, bounds.MinY, bounds.MaxX, bounds.MaxY, hilbert.Order)
	keys := make([]uint64, len(points))
	for i, p := range points {
		keys[i] = sc.D(p.X, p.Y)
	}
	runs := hilbert.Partition(keys, cfg.Shards)

	e := &Engine{
		shards:      make([]oneShard, len(runs)),
		points:      append([]geom.Point(nil), points...),
		bounds:      bounds,
		parallelism: cfg.Parallelism,
		met:         cfg.Metrics,
	}
	for si, run := range runs {
		// Ascending global order inside the shard keeps the remapping
		// stable across shard counts and makes merged output ordering
		// independent of the Hilbert traversal direction.
		global := make([]int64, len(run))
		for i, idx := range run {
			global[i] = int64(idx)
		}
		slices.Sort(global)
		pts := make([]geom.Point, len(global))
		mbr := geom.EmptyRect()
		for i, id := range global {
			pts[i] = points[id]
			mbr = mbr.ExtendPoint(pts[i])
		}
		e.shards[si] = oneShard{bounds: mbr, global: global, pts: pts}
	}

	err := exec.Run(context.Background(), len(e.shards),
		exec.Options{NumWorkers: cfg.Parallelism, Chunk: 1},
		func(_, si int) error {
			eng, err := cfg.Build(si, e.shards[si].pts, bounds)
			if err != nil {
				return fmt.Errorf("building shard %d (%d points): %w", si, len(e.shards[si].pts), err)
			}
			e.shards[si].eng = eng
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	return e, nil
}

// NumShards returns the shard count (after clamping).
func (e *Engine) NumShards() int { return len(e.shards) }

// ShardSizes returns the per-shard point counts.
func (e *Engine) ShardSizes() []int {
	out := make([]int, len(e.shards))
	for i := range e.shards {
		out[i] = len(e.shards[i].pts)
	}
	return out
}

// ShardBounds returns the tight bounding rectangle of shard si's points.
func (e *Engine) ShardBounds(si int) geom.Rect { return e.shards[si].bounds }

// ShardEngine returns shard si's engine, for instrumentation.
func (e *Engine) ShardEngine(si int) *core.Engine { return e.shards[si].eng }

// Len returns the total point count.
func (e *Engine) Len() int { return len(e.points) }

// Bounds returns the universe rectangle.
func (e *Engine) Bounds() geom.Rect { return e.bounds }

// Point returns the position of a global id; it panics when id is out of
// range. PointOK is the bounds-checked variant.
func (e *Engine) Point(id int64) geom.Point { return e.points[id] }

// PointOK returns the position of a global id and whether the id is in
// range.
func (e *Engine) PointOK(id int64) (geom.Point, bool) {
	if id < 0 || id >= int64(len(e.points)) {
		return geom.Point{}, false
	}
	return e.points[id], true
}

// survivors appends to dst the indexes of shards whose bounds intersect
// the region's MBR — the only shards that can contribute results.
func (e *Engine) survivors(dst []int, region core.Region) []int {
	mbr := region.Bounds()
	for si := range e.shards {
		if e.shards[si].bounds.Intersects(mbr) {
			dst = append(dst, si)
		}
	}
	return dst
}

// shardSpec is the per-shard execution spec: the caller's spec with the
// method mapped shard-local (core.PartitionMethod; see the package comment)
// and the reuse buffer stripped (per-shard results cannot share one
// buffer).
func shardSpec(spec core.QuerySpec) core.QuerySpec {
	spec.Method = core.PartitionMethod(spec.Method)
	spec.Dest = nil
	return spec
}

// shardQuery runs one region on one shard with the shard-local spec.
// There is deliberately no fallback to the segment rule when the shard's
// data has no Voronoi cells (core.ErrStrictNotSupported): silently
// degrading would break the package's exact-result guarantee, so the
// error surfaces to the caller instead. Both provided DataAccess types
// carry a per-shard packed cell arena, so the upgraded strict expansion
// reads each shard's clipped cells from dense memory without materializing
// rings; a custom BuildFunc whose DataAccess.CellArena returns nil can
// only serve Traditional and BruteForce.
func (s *oneShard) shardQuery(ctx context.Context, region core.Region, spec core.QuerySpec) ([]int64, core.Stats, error) {
	return s.eng.QueryRegionSpec(ctx, region, shardSpec(spec))
}

// budgetedQuery is shardQuery for limited result queries: every scatter
// task of one query draws from a shared budget of spec.Limit result slots
// and stops the moment the budget is spent. Without it each shard would
// honor the limit locally and scan (and materialize) up to Limit results
// per shard — up to shards×Limit work for a query that returns Limit ids.
// A slot is claimed per discovered result, so across all shards at most
// spec.Limit ids are materialized; which ones depends on shard timing,
// within the Limit option's documented latitude.
func (s *oneShard) budgetedQuery(ctx context.Context, region core.Region, spec core.QuerySpec, budget *atomic.Int64) ([]int64, core.Stats, error) {
	local := shardSpec(spec)
	var ids []int64
	st, err := s.eng.EachRegion(ctx, region, local, func(id int64, _ geom.Point) bool {
		if budget.Add(-1) < 0 {
			return false
		}
		ids = append(ids, id)
		return true
	})
	return ids, st, err
}

// remap converts shard-local result ids to global ids in place-free
// fashion (a fresh slice is returned; local is not retained).
func (s *oneShard) remap(local []int64) []int64 {
	out := make([]int64, len(local))
	for i, id := range local {
		out[i] = s.global[id]
	}
	return out
}

// QueryRegionSpec is the context-aware spec-driven scatter-gather query:
// shards whose bounds miss the region are pruned, survivors fan out onto
// the worker pool, and per-shard results merge into ascending global id
// order. spec.CountOnly skips the merge entirely (the count is
// Stats.ResultSize); spec.Limit is a global bound enforced by a budget
// shared across the scatter (at most Limit ids are materialized in total,
// not per shard); spec.Dest backs the merged slice.
func (e *Engine) QueryRegionSpec(ctx context.Context, region core.Region, spec core.QuerySpec) ([]int64, core.Stats, error) {
	agg := core.Stats{Method: spec.Method}
	alive := e.survivors(nil, region)
	e.observeFanOut(spec.Trace, len(alive))
	if len(alive) == 0 {
		if err := ctx.Err(); err != nil || spec.CountOnly || spec.Dest == nil {
			return nil, agg, err
		}
		return spec.Dest[:0], agg, nil
	}
	// Limited result queries share one budget of Limit slots across the
	// scatter, so the whole fan-out materializes at most Limit ids instead
	// of Limit per shard.
	var budget *atomic.Int64
	if spec.Limit > 0 && !spec.CountOnly {
		budget = new(atomic.Int64)
		budget.Store(int64(spec.Limit))
	}
	opts := e.scatterOpts()
	parts := make([][]int64, len(alive))
	workerStats := make([]core.Stats, opts.Workers(len(alive)))
	err := exec.Run(ctx, len(alive), opts, func(worker, i int) error {
		s := &e.shards[alive[i]]
		var (
			local []int64
			st    core.Stats
			err   error
			t0    time.Time
		)
		if e.met != nil {
			t0 = time.Now()
		}
		if budget != nil {
			local, st, err = s.budgetedQuery(ctx, region, spec, budget)
		} else {
			local, st, err = s.shardQuery(ctx, region, spec)
		}
		if e.met != nil {
			e.met.ShardQueries.Inc()
			e.met.ShardLatency.Observe(time.Since(t0))
		}
		workerStats[worker].Add(st)
		if err != nil {
			return fmt.Errorf("shard %d: %w", alive[i], err)
		}
		if !spec.CountOnly {
			parts[i] = s.remap(local)
		}
		return nil
	})
	for _, ws := range workerStats {
		agg.Add(ws)
	}
	if err != nil {
		return nil, agg, wrapRunErr(err)
	}
	if spec.CountOnly {
		// Per-shard counts summed by Add; cap like a merged+truncated
		// result would be.
		if spec.Limit > 0 && agg.ResultSize > spec.Limit {
			agg.Finalize(spec.Limit)
		}
		return nil, agg, nil
	}
	var mergeStart time.Time
	if spec.Trace != nil {
		mergeStart = time.Now()
	}
	out := core.MergeSorted(spec.Dest, parts)
	if spec.Limit > 0 && len(out) > spec.Limit {
		out = out[:spec.Limit]
	}
	if spec.Trace != nil {
		spec.Trace.Add(obs.PhaseMerge, time.Since(mergeStart))
	}
	agg.Finalize(len(out))
	return out, agg, nil
}

// EachRegion streams an area query: yield receives each result (global id
// and position) as the per-shard Voronoi BFS discovers it. Shards are
// walked one after another, each streaming in discovery order — global
// ids of different shards interleave (Hilbert partitioning scatters the
// original indexes), so no overall id ordering is implied. yield
// returning false stops the query. spec.Limit bounds the total number of
// yields across shards; spec.CountOnly and spec.Dest are ignored.
func (e *Engine) EachRegion(ctx context.Context, region core.Region, spec core.QuerySpec, yield func(id int64, pos geom.Point) bool) (core.Stats, error) {
	agg := core.Stats{Method: spec.Method}
	alive := e.survivors(nil, region)
	e.observeFanOut(spec.Trace, len(alive))
	remaining := spec.Limit
	for _, si := range alive {
		local := shardSpec(spec)
		local.CountOnly = false
		if spec.Limit > 0 {
			local.Limit = remaining
		}
		s := &e.shards[si]
		stopped := false
		var t0 time.Time
		if e.met != nil {
			t0 = time.Now()
		}
		st, err := s.eng.EachRegion(ctx, region, local, func(id int64, pos geom.Point) bool {
			if !yield(s.global[id], pos) {
				stopped = true
				return false
			}
			return true
		})
		if e.met != nil {
			e.met.ShardQueries.Inc()
			e.met.ShardLatency.Observe(time.Since(t0))
		}
		agg.Add(st)
		if err != nil {
			agg.Finalize(agg.ResultSize)
			return agg, fmt.Errorf("shard: shard %d: %w", si, err)
		}
		if stopped {
			break
		}
		if spec.Limit > 0 {
			remaining -= st.ResultSize
			if remaining <= 0 {
				break
			}
		}
	}
	agg.Finalize(agg.ResultSize)
	return agg, ctx.Err()
}

// QueryRegionsSpec is the context-aware spec-driven batch: every (region,
// surviving shard) pair is one pool task; cancellation abandons
// un-dispatched pairs. With spec.CountOnly the per-query slices stay nil
// and the aggregate match count is Stats.ResultSize. spec.Dest is ignored
// (one buffer cannot back a batch of results).
func (e *Engine) QueryRegionsSpec(ctx context.Context, regions []core.Region, spec core.QuerySpec) ([][]int64, core.Stats, error) {
	agg := core.Stats{Method: spec.Method}
	if len(regions) == 0 {
		return nil, agg, nil
	}
	spec.Dest = nil

	// Scatter: one task per (query, surviving shard) pair.
	type task struct {
		query, shard int
		slot         int // index into the query's parts slice
	}
	var tasks []task
	parts := make([][][]int64, len(regions)) // query -> shard slot -> global ids
	counts := make([][]int, len(regions))    // query -> shard slot -> match count
	alive := make([]int, 0, len(e.shards))
	for qi, region := range regions {
		alive = e.survivors(alive[:0], region)
		e.observeFanOut(spec.Trace, len(alive))
		parts[qi] = make([][]int64, len(alive))
		counts[qi] = make([]int, len(alive))
		for slot, si := range alive {
			tasks = append(tasks, task{query: qi, shard: si, slot: slot})
		}
	}
	// The limit applies per region: each query's scatter tasks share one
	// budget of Limit result slots (see budgetedQuery).
	var budgets []atomic.Int64
	if spec.Limit > 0 && !spec.CountOnly {
		budgets = make([]atomic.Int64, len(regions))
		for qi := range budgets {
			budgets[qi].Store(int64(spec.Limit))
		}
	}

	// Chunk 1, as in QueryRegionSpec: each task is a full per-shard query —
	// expensive enough that claiming several per steal would serialize
	// small batches.
	opts := e.scatterOpts()
	workerStats := make([]core.Stats, opts.Workers(len(tasks)))
	err := exec.Run(ctx, len(tasks), opts, func(worker, i int) error {
		tk := tasks[i]
		s := &e.shards[tk.shard]
		var (
			local []int64
			st    core.Stats
			err   error
			t0    time.Time
		)
		if e.met != nil {
			t0 = time.Now()
		}
		if budgets != nil {
			local, st, err = s.budgetedQuery(ctx, regions[tk.query], spec, &budgets[tk.query])
		} else {
			local, st, err = s.shardQuery(ctx, regions[tk.query], spec)
		}
		if e.met != nil {
			e.met.ShardQueries.Inc()
			e.met.ShardLatency.Observe(time.Since(t0))
		}
		workerStats[worker].Add(st)
		if err != nil {
			return fmt.Errorf("query %d shard %d: %w", tk.query, tk.shard, err)
		}
		if spec.CountOnly {
			counts[tk.query][tk.slot] = st.ResultSize
		} else {
			parts[tk.query][tk.slot] = s.remap(local)
		}
		return nil
	})
	for _, ws := range workerStats {
		agg.Add(ws)
	}
	if err != nil {
		return nil, agg, wrapRunErr(err)
	}

	// Gather: merge each query's shard results.
	var mergeStart time.Time
	if spec.Trace != nil {
		mergeStart = time.Now()
		defer func() { spec.Trace.Add(obs.PhaseMerge, time.Since(mergeStart)) }()
	}
	total := 0
	var out [][]int64
	if spec.CountOnly {
		for qi := range regions {
			c := 0
			for _, n := range counts[qi] {
				c += n
			}
			if spec.Limit > 0 && c > spec.Limit {
				c = spec.Limit
			}
			total += c
		}
	} else {
		out = make([][]int64, len(regions))
		for qi := range regions {
			out[qi] = core.MergeSorted(nil, parts[qi])
			if spec.Limit > 0 && len(out[qi]) > spec.Limit {
				out[qi] = out[qi][:spec.Limit]
			}
			total += len(out[qi])
		}
	}
	agg.Finalize(total)
	return out, agg, nil
}

// wrapRunErr prefixes pool errors with the package name, except bare
// context errors (already self-describing, and callers match them with
// errors.Is anyway).
func wrapRunErr(err error) error {
	if err == context.Canceled || err == context.DeadlineExceeded {
		return err
	}
	return fmt.Errorf("shard: %w", err)
}
