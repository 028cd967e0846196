// Package shard is the scatter-gather kernel: it answers area queries over
// a dataset split into partitions by pruning the partitions a region cannot
// touch, scattering the query to the survivors, and gathering their answers
// into one result. Every engine flavor queries through it. The kernel runs
// over the small Partition interface and knows nothing about where a
// partition lives. Two implementations plug into it: the in-process shard
// of this package — a Hilbert run of a static dataset (New, where one shard
// is the whole dataset) or a dynamic epoch's engine (OverEngine) — and
// package remote's HTTP backend (Over). Taking the union of per-partition
// answers is exact for either, because every partition's clipped Voronoi
// diagram still tiles the universe — the BFS inside a partition finds
// exactly that partition's points inside a connected region within it.
//
// What the kernel decides, once, for every transport:
//
//   - Refuse: an unknown method fails at the kernel's entry, before
//     pruning, so on every region.
//   - Prune: a partition is contacted iff its bounds — its pruning key,
//     ideally the tight MBR of its points — intersect the region's MBR. The
//     universe the partitions clip their cells to is a separate rectangle
//     (Over's argument): it admits regions, it never prunes, and a region
//     inside it that meets no partition's key answers empty. Fan-out and pruned counts go to
//     Metrics and the trace here and nowhere else.
//   - Method upgrade: with more than one partition each holds a sub-sample
//     of the dataset, so its cells are larger and its Delaunay segments
//     longer; the paper's published expansion rule (expand across a
//     boundary point only when the connecting segment meets the region)
//     can then step over a thin lobe of a concave query and strand a result
//     island (observed on ~2% of 1%-area queries over a 200k-point dataset
//     at 8 shards). VoronoiBFS therefore executes as VoronoiBFSStrict,
//     which is complete at any density. On a polygon it walks the
//     boundary through the partition's triangles, validates the few sites
//     of the edges it meets that their sides of it cannot place, and
//     floods the interior untested: on every polygon of
//     TestQueryCostsPinned, at most the published rule's validations. On a circle it is the segment rule
//     again, which convexity makes exact on any sub-sample, so there the
//     upgrade changes nothing. On a custom region it tests cells, clipped
//     as they are tested, complete for a connected region inside the
//     universe the partitions clip their cells to (the public Querier body
//     refuses any region escaping it before it gets here). A sole
//     partition holds the full diagram and runs the caller's method
//     verbatim.
//   - Scatter: one exec pool, per-worker statistics. A batch is one task
//     per (region, partition) pair, except that a partition offering
//     RegionsQuerier answers all its regions in one call. A pair's task
//     lends its partition a pooled id buffer as spec.Dest, so a warm
//     scatter grows no answer from nil. A single query with one survivor
//     skips the pool: it answers on the calling goroutine, into the
//     caller's reuse buffer, allocating nothing.
//   - Fail fast: a failed partition fails the query, with the first
//     partition error — there is no partial answer, because a missing
//     partition leaves a hole in the tiling the union rests on. A batch
//     names the failing region by its index in the batch, except when the
//     failed call was a RegionsQuerier's, which answers several. A done
//     caller context always wins: its error is the query's, whatever the
//     partitions reported, and a call it cut short is not counted as a
//     partition failure in Dropped.
//   - Gather: per region, copy the partitions' ids into the caller's
//     buffer (or a fresh slice sized to the result), sort them into
//     ascending global id order and count; then every lent buffer goes
//     back to its pool, so no result the caller holds shares memory with
//     it. Under CountOnly nothing is merged: the count is the partitions'
//     summed ResultSize.
//
// Every path takes a context.Context: cancellation abandons un-dispatched
// tasks at the pool, running partition calls at their own boundaries, and
// surfaces as ctx.Err() with the statistics of the work already done.
package shard

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/obs"
)

// Partition is one slice of the dataset as the kernel sees it. Every
// method answers in global id space — mapping its own ids is the
// partition's business — and must be safe for concurrent use. A partition
// that implements fmt.Stringer names itself in the kernel's errors.
type Partition interface {
	// Bounds is the pruning key: a rectangle containing every point the
	// partition holds now or will ever hold — the tighter the better, and
	// not the universe unless nothing tighter can be vouched for. It is a
	// real rectangle, empty only for a partition holding no point: a
	// partition is contacted only for regions whose MBR meets it.
	Bounds() geom.Rect
	// Len is the partition's point count.
	Len() int
	// Query answers one area query; ids come back in any order, nil under
	// spec.CountOnly (the count is Stats.ResultSize). A partition may
	// append its ids into spec.Dest (from Dest[:0]), and the ids it
	// returns are the kernel's to sort and to reuse: the caller's buffer
	// when the partition is a region's sole survivor, a pooled one the
	// kernel takes back after the merge otherwise.
	Query(ctx context.Context, region core.Region, spec core.QuerySpec) ([]int64, core.Stats, error)
	// Each streams one area query, counting the yields in Stats.ResultSize.
	Each(ctx context.Context, region core.Region, spec core.QuerySpec, yield func(id int64, pos geom.Point) bool) (core.Stats, error)
}

// RegionsQuerier is implemented by partitions for which one call over
// several regions is cheaper than one call per region (an HTTP backend
// answers them in one round trip). The kernel detects it by type assertion
// and hands such a partition every region of a batch it survives at once.
// Results align with regions; under spec.CountOnly they are nil and
// Stats.ResultSize is the total over the regions.
type RegionsQuerier interface {
	QueryRegions(ctx context.Context, regions []core.Region, spec core.QuerySpec) ([][]int64, core.Stats, error)
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

// NewMetrics resolves the kernel's series in reg — its scatter's and its
// worker pool's — each name suffixed with labels (`{flavor="static"}`, say),
// so that kernels given the same labels aggregate. A nil reg yields nil.
func NewMetrics(reg *obs.Registry, labels string) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		FanOut:       reg.Histogram("vaq_shard_fanout" + labels),
		ShardsPruned: reg.Counter("vaq_shard_pruned_total" + labels),
		ShardQueries: reg.Counter("vaq_shard_queries_total" + labels),
		ShardLatency: reg.Histogram("vaq_shard_latency_ns" + labels),
		Exec: &exec.Metrics{
			Tasks:         reg.Counter("vaq_exec_tasks_total" + labels),
			ChunkWait:     reg.Histogram("vaq_exec_chunk_wait_ns" + labels),
			WorkerBusy:    reg.Histogram("vaq_exec_worker_busy_ns" + labels),
			ActiveWorkers: reg.Gauge("vaq_exec_active_workers" + labels),
		},
	}
}

// Engine is the kernel over one set of partitions. Like core.Engine it is
// immutable after construction and safe for concurrent use from any number
// of goroutines.
type Engine struct {
	parts       []Partition
	partBounds  []geom.Rect // parts[i].Bounds(), read once
	length      int
	bounds      geom.Rect
	parallelism int
	dropped     atomic.Uint64
	met         *Metrics
}

// Over builds the kernel over explicit partitions. universe is the
// rectangle every partition clips its cells to — what Bounds reports — and
// must be a real one, never derived from the partitions' pruning keys,
// whose union may be smaller. parallelism bounds the scatter's worker pool
// (<= 0 means runtime.GOMAXPROCS); met may be nil.
func Over(parts []Partition, universe geom.Rect, parallelism int, met *Metrics) *Engine {
	e := &Engine{
		parts:       parts,
		partBounds:  make([]geom.Rect, len(parts)),
		bounds:      universe,
		parallelism: parallelism,
		met:         met,
	}
	for i, p := range parts {
		e.partBounds[i] = p.Bounds()
		e.length += p.Len()
	}
	return e
}

// NumShards returns the partition count.
func (e *Engine) NumShards() int { return len(e.parts) }

// ShardSizes returns the per-partition point counts.
func (e *Engine) ShardSizes() []int {
	out := make([]int, len(e.parts))
	for i, p := range e.parts {
		out[i] = p.Len()
	}
	return out
}

// ShardBounds returns partition si's pruning key — for a shard built by
// New, the tight bounding rectangle of its points.
func (e *Engine) ShardBounds(si int) geom.Rect { return e.partBounds[si] }

// Len returns the total point count.
func (e *Engine) Len() int { return e.length }

// Bounds returns the universe rectangle — New's bounds, Over's universe.
func (e *Engine) Bounds() geom.Rect { return e.bounds }

// Dropped returns the cumulative number of partition calls that failed
// while the caller's context was live; each of them failed its query.
func (e *Engine) Dropped() uint64 { return e.dropped.Load() }

// DataBounds returns the union of the partitions' pruning keys — for an
// engine built by New, the bounding rectangle of its points.
func (e *Engine) DataBounds() geom.Rect {
	r := geom.EmptyRect()
	for _, b := range e.partBounds {
		r = r.Union(b)
	}
	return r
}

// survivors appends to dst the indexes of partitions that can contribute
// to region: those whose bounds intersect its MBR.
func (e *Engine) survivors(dst []int, region core.Region) []int {
	mbr := region.Bounds()
	for pi, b := range e.partBounds {
		if b.Intersects(mbr) {
			dst = append(dst, pi)
		}
	}
	return dst
}

// observeFanOut records one region's scatter width into the metrics and
// the trace; no-op when neither is attached.
func (e *Engine) observeFanOut(tr *obs.QueryTrace, alive int) {
	if e.met != nil {
		e.met.FanOut.ObserveN(uint64(alive))
		e.met.ShardsPruned.Add(uint64(len(e.parts) - alive))
	}
	tr.SetFanOut(alive)
}

// partStart and partDone bracket one partition call for ShardQueries and
// ShardLatency; without metrics neither reads the clock.
func (e *Engine) partStart() (t0 time.Time) {
	if e.met != nil {
		t0 = time.Now()
	}
	return t0
}

func (e *Engine) partDone(t0 time.Time) {
	if e.met != nil {
		e.met.ShardQueries.Inc()
		e.met.ShardLatency.Observe(time.Since(t0))
	}
}

// partSpec is the spec partitions execute: the caller's with the method
// upgraded (see the package comment).
func (e *Engine) partSpec(spec core.QuerySpec) core.QuerySpec {
	if len(e.parts) > 1 && spec.Method == core.VoronoiBFS {
		spec.Method = core.VoronoiBFSStrict
	}
	return spec
}

// partErr names the failing partition and counts the failure in Dropped,
// unless the caller's context is done: a call its caller cut short is not
// the partition's failure.
func (e *Engine) partErr(ctx context.Context, pi int, err error) error {
	if ctx.Err() == nil {
		e.dropped.Add(1)
	}
	return fmt.Errorf("%v: %w", e.parts[pi], err)
}

// pair is the unit of scattered work: one region on one partition that
// survived pruning for it.
type pair struct{ region, part int32 }

// scattered is the outcome of one fan-out, indexed like pairs.
type scattered struct {
	pairs []pair     // region-major: a region's pairs are contiguous
	ids   [][]int64  // each pair's global ids; nil under CountOnly
	bufs  []*[]int64 // the idBufs buffer a single-pair task lent, or nil
}

// idBufs holds the buffers scatter lends partitions as spec.Dest. gather
// copies out of them and release returns them, so a warm scatter grows no
// partition's answer from nil.
var idBufs = sync.Pool{New: func() any { return new([]int64) }}

// release returns the buffers scatter lent to idBufs, each keeping the
// larger of its own capacity and that of the answer written into it. No
// slice gather produced may alias them: mergeSorted always copies.
func (sc *scattered) release() {
	for i, bp := range sc.bufs {
		if bp == nil {
			continue
		}
		if ids := sc.ids[i]; cap(ids) > cap(*bp) {
			*bp = ids[:0]
		}
		idBufs.Put(bp)
	}
}

// scatter plans regions × partitions into sc, runs the plan on the pool
// and folds the partitions' statistics into agg. The error is the caller's
// context error if it is done — whatever the partitions reported — and
// otherwise the first partition failure. Whatever the error, the caller
// releases sc once it has gathered it.
func (e *Engine) scatter(ctx context.Context, regions []core.Region, spec core.QuerySpec, agg *core.Stats, sc *scattered) error {
	alive := make([]int, 0, len(e.parts))
	for qi, region := range regions {
		alive = e.survivors(alive[:0], region)
		e.observeFanOut(spec.Trace, len(alive))
		sc.pairs = slices.Grow(sc.pairs, len(alive))
		for _, pi := range alive {
			sc.pairs = append(sc.pairs, pair{region: int32(qi), part: int32(pi)})
		}
	}
	if len(sc.pairs) == 0 {
		return ctx.Err()
	}
	pspec := e.partSpec(spec)
	pspec.Dest = nil // a single-pair task lends its own; a batch call gets none
	if !spec.CountOnly {
		sc.ids = make([][]int64, len(sc.pairs))
		sc.bufs = make([]*[]int64, len(sc.pairs))
	}

	// A task is the pairs (as indexes into sc.pairs) one partition answers
	// in one call: a single pair, except that a RegionsQuerier takes all
	// its pairs of a batch at once. A worker claims one task at a time.
	tasks := make([][]int32, 0, len(sc.pairs))
	single := make([]int32, len(sc.pairs))
	var grouped [][]int32
	for i, pr := range sc.pairs {
		single[i] = int32(i)
		if _, ok := e.parts[pr.part].(RegionsQuerier); ok && len(regions) > 1 {
			if grouped == nil {
				grouped = make([][]int32, len(e.parts))
			}
			grouped[pr.part] = append(grouped[pr.part], int32(i))
			continue
		}
		tasks = append(tasks, single[i:i+1])
	}
	for _, g := range grouped {
		if len(g) > 0 {
			tasks = append(tasks, g)
		}
	}

	opts := exec.Options{NumWorkers: e.parallelism}
	if e.met != nil {
		opts.Metrics = e.met.Exec
	}
	workerStats := make([]core.Stats, opts.Workers(len(tasks)))
	runErr := exec.Run(ctx, len(tasks), opts, func(worker, ti int) error {
		tk := tasks[ti]
		part := int(sc.pairs[tk[0]].part)
		var (
			st  core.Stats
			err error
		)
		t0 := e.partStart()
		if len(tk) == 1 {
			i := tk[0]
			qspec := pspec
			if sc.ids != nil {
				bp := idBufs.Get().(*[]int64)
				sc.bufs[i], qspec.Dest = bp, (*bp)[:0]
			}
			var ids []int64
			ids, st, err = e.parts[part].Query(ctx, regions[sc.pairs[i].region], qspec)
			if err == nil && sc.ids != nil {
				sc.ids[i] = ids
			}
		} else {
			sub := make([]core.Region, len(tk))
			for j, i := range tk {
				sub[j] = regions[sc.pairs[i].region]
			}
			var res [][]int64
			res, st, err = e.parts[part].(RegionsQuerier).QueryRegions(ctx, sub, pspec)
			if err == nil && sc.ids != nil && len(res) != len(sub) {
				err = fmt.Errorf("batch answered %d results for %d regions", len(res), len(sub))
			}
			if err == nil && sc.ids != nil {
				for j, i := range tk {
					sc.ids[i] = res[j]
				}
			}
		}
		e.partDone(t0)
		workerStats[worker].Add(st)
		if err != nil {
			err = e.partErr(ctx, part, err)
			if len(tk) == 1 {
				err = fmt.Errorf("region %d: %w", sc.pairs[tk[0]].region, err)
			}
		}
		return err
	})
	for _, ws := range workerStats {
		agg.Add(ws)
	}
	// Cancellation beats a partition failure: a partition that failed
	// because the caller gave up reports the caller's error.
	if err := ctx.Err(); err != nil {
		return err
	}
	if runErr != nil {
		return fmt.Errorf("shard: %w", runErr)
	}
	return nil
}

// gather reduces a scatter region by region: merge the partitions' ids
// into ascending order (into dst, when given). out receives each region's
// ids. agg is finalized with the total result size, which under CountOnly
// is the partitions' summed ResultSize, already in agg.
func gather(sc *scattered, spec core.QuerySpec, dst []int64, out [][]int64, agg *core.Stats) {
	mergeStart := startMerge(spec.Trace)
	total := agg.ResultSize
	if !spec.CountOnly {
		total = 0
		lo := 0
		for qi := range out {
			hi := lo
			for hi < len(sc.pairs) && int(sc.pairs[hi].region) == qi {
				hi++
			}
			out[qi] = mergeSorted(dst, sc.ids[lo:hi])
			total += len(out[qi])
			lo = hi
		}
	}
	endMerge(spec.Trace, mergeStart)
	agg.ResultSize = total
}

// startMerge and endMerge bracket the gather's merge phase in the trace;
// without one neither reads the clock.
func startMerge(tr *obs.QueryTrace) (t0 time.Time) {
	if tr != nil {
		t0 = time.Now()
	}
	return t0
}

func endMerge(tr *obs.QueryTrace, t0 time.Time) {
	if tr != nil {
		tr.Add(obs.PhaseMerge, time.Since(t0))
	}
}

// mergeSorted concatenates per-partition global id slices into dst
// (reusing its capacity; nil for a fresh slice sized to the result) and
// sorts them ascending, the canonical result order. It always copies: a
// part may be a pooled buffer that release hands to the next query. An
// empty result with a reuse buffer is dst[:0], not nil — the Dest contract
// of core.Engine.
func mergeSorted(dst []int64, parts [][]int64) []int64 {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		if dst == nil {
			return nil
		}
		return dst[:0]
	}
	dst = slices.Grow(dst[:0], total)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	core.SortIDs(dst)
	return dst
}

// QueryRegionSpec answers one area query: ids in ascending global order,
// backed by spec.Dest when given. spec.CountOnly skips the merge (the
// count is Stats.ResultSize).
func (e *Engine) QueryRegionSpec(ctx context.Context, region core.Region, spec core.QuerySpec) ([]int64, core.Stats, error) {
	if err := core.CheckMethod(spec.Method); err != nil {
		return nil, core.Stats{}, err
	}
	var buf [8]int // survivors stay on the stack
	if alive := e.survivors(buf[:0], region); len(alive) <= 1 {
		return e.querySole(ctx, region, spec, alive)
	}
	var (
		agg core.Stats
		sc  scattered
	)
	regions := [1]core.Region{region}
	err := e.scatter(ctx, regions[:], spec, &agg, &sc)
	defer sc.release()
	if err != nil {
		return nil, agg, err
	}
	var out [1][]int64
	gather(&sc, spec, spec.Dest, out[:], &agg)
	return out[0], agg, nil
}

// querySole is QueryRegionSpec when at most one partition survives
// pruning: that partition answers on the calling goroutine, into
// spec.Dest, and its ids are sorted in place. It observes, wraps and
// counts exactly what the scatter does.
func (e *Engine) querySole(ctx context.Context, region core.Region, spec core.QuerySpec, alive []int) ([]int64, core.Stats, error) {
	e.observeFanOut(spec.Trace, len(alive))
	ids, st, err := spec.Dest[:0], core.Stats{}, error(nil)
	if len(alive) == 1 {
		t0 := e.partStart()
		ids, st, err = e.parts[alive[0]].Query(ctx, region, e.partSpec(spec))
		e.partDone(t0)
		if err != nil {
			err = fmt.Errorf("shard: %w", e.partErr(ctx, alive[0], err))
		}
	}
	// As in scatter, the caller's error beats the partition's.
	if err = cmp.Or(ctx.Err(), err); err != nil || spec.CountOnly {
		return nil, st, err
	}
	t0 := startMerge(spec.Trace)
	core.SortIDs(ids)
	endMerge(spec.Trace, t0)
	return ids, st, nil
}

// QueryRegionsSpec answers a batch: results align with regions, each in
// ascending global order. With spec.CountOnly the result is nil and the
// aggregate match count is Stats.ResultSize. spec.Dest is ignored (one
// buffer cannot back a batch of results). Cancellation abandons
// un-dispatched tasks.
func (e *Engine) QueryRegionsSpec(ctx context.Context, regions []core.Region, spec core.QuerySpec) ([][]int64, core.Stats, error) {
	if err := core.CheckMethod(spec.Method); err != nil {
		return nil, core.Stats{}, err
	}
	var (
		agg core.Stats
		sc  scattered
	)
	err := e.scatter(ctx, regions, spec, &agg, &sc)
	defer sc.release()
	if err != nil {
		return nil, agg, err
	}
	var out [][]int64
	if !spec.CountOnly && len(regions) > 0 {
		out = make([][]int64, len(regions))
	}
	gather(&sc, spec, nil, out, &agg)
	return out, agg, nil
}

// EachRegion streams an area query: yield receives each result (global id
// and position) as the partitions discover it. Surviving partitions are
// walked one after another, each streaming in its own discovery order —
// global ids of different partitions interleave, so no overall id ordering
// is implied. yield returning false stops the query; spec.CountOnly and
// spec.Dest are ignored. A partition failure ends the stream.
func (e *Engine) EachRegion(ctx context.Context, region core.Region, spec core.QuerySpec, yield func(id int64, pos geom.Point) bool) (core.Stats, error) {
	if err := core.CheckMethod(spec.Method); err != nil {
		return core.Stats{}, err
	}
	var buf [8]int
	alive := e.survivors(buf[:0], region)
	e.observeFanOut(spec.Trace, len(alive))
	pspec := e.partSpec(spec)
	pspec.CountOnly = false
	// A sole survivor streams straight into yield. Several are walked until
	// yield stops, which only a wrapper sees; it is built, and allocated,
	// for them alone.
	each, stopped := yield, func() bool { return false }
	if len(alive) > 1 {
		stop := false
		each = func(id int64, pos geom.Point) bool {
			stop = !yield(id, pos)
			return !stop
		}
		stopped = func() bool { return stop }
	}
	var agg core.Stats
	for _, pi := range alive {
		if ctx.Err() != nil || stopped() {
			break
		}
		t0 := e.partStart()
		st, err := e.parts[pi].Each(ctx, region, pspec, each)
		e.partDone(t0)
		agg.Add(st)
		if err != nil {
			return agg, fmt.Errorf("shard: %w", e.partErr(ctx, pi, err))
		}
	}
	return agg, ctx.Err()
}
