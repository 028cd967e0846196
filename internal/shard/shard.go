// Package shard is the scatter-gather kernel: it answers area queries over
// a dataset split into partitions by pruning the partitions a region cannot
// touch, scattering the query to the survivors, and gathering their answers
// into one result. The kernel runs over the small Partition interface and
// knows nothing about where a partition lives. Two implementations plug
// into it: the Hilbert-built in-process shard of this package (New), and
// package remote's HTTP backend (Over). Taking the union of per-partition
// answers is exact for either, because every partition's clipped Voronoi
// diagram still tiles the universe — the BFS inside a partition finds
// exactly that partition's points inside a connected region within it.
//
// What the kernel decides, once, for every transport:
//
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
//     which is complete at any density. On a polygon it traces the
//     boundary through the partition's diagram, validates the sites whose
//     cells meet it (and the neighbours of the few cells it did not cross
//     exactly once), and floods the interior untested: fewer validations
//     than the published rule once the interior outgrows the shell (past
//     ≈ 20 results per partition on TestQueryCostsPinned's sites). On a circle it is the segment rule
//     again, which convexity makes exact on any sub-sample, so there the
//     upgrade changes nothing. On a custom region it tests cells, clipped
//     as they are tested, complete for a connected region inside the
//     universe the partitions clip their cells to (the public Querier body
//     refuses any region escaping it before it gets here). A sole
//     partition holds the full diagram and runs the caller's method
//     verbatim.
//   - Scatter: one exec pool, Chunk 1, per-worker statistics. A single
//     query is one task per surviving partition; a batch is one task per
//     (region, partition) pair, except that a partition offering
//     RegionsQuerier answers all its regions in one call.
//   - Fail fast: a failed partition fails the query, with the first
//     partition error — there is no partial answer, because a missing
//     partition leaves a hole in the tiling the union rests on. A done
//     caller context always wins: its error is the query's, whatever the
//     partitions reported, and a call it cut short is not counted as a
//     partition failure in Dropped.
//   - Gather: per region, merge into ascending global id order and count.
//     Under CountOnly nothing is merged: the count is the partitions'
//     summed ResultSize.
//
// Every path takes a context.Context: cancellation abandons un-dispatched
// tasks at the pool, running partition calls at their own boundaries, and
// surfaces as ctx.Err() with the statistics of the work already done.
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
	// spec.CountOnly (the count is Stats.ResultSize). spec.Dest is nil.
	Query(ctx context.Context, region core.Region, spec core.QuerySpec) ([]int64, core.Stats, error)
	// Each streams one area query, counting the yields in Stats.ResultSize.
	Each(ctx context.Context, region core.Region, spec core.QuerySpec, yield func(id int64, pos geom.Point) bool) (core.Stats, error)
}

// RegionsQuerier is implemented by partitions for which one call over
// several regions is cheaper than one call per region (an HTTP backend
// answers them in one round trip). The kernel detects it at construction
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

// Engine is the kernel over one set of partitions. Like core.Engine it is
// immutable after construction and safe for concurrent use from any number
// of goroutines.
type Engine struct {
	parts       []Partition
	batch       []RegionsQuerier // batch[i] is parts[i]'s batch call; nil without one
	partBounds  []geom.Rect      // parts[i].Bounds(), read once
	length      int
	bounds      geom.Rect
	points      []geom.Point // global id -> position; engines built by New only
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
		batch:       make([]RegionsQuerier, len(parts)),
		partBounds:  make([]geom.Rect, len(parts)),
		bounds:      universe,
		parallelism: parallelism,
		met:         met,
	}
	for i, p := range parts {
		e.batch[i], _ = p.(RegionsQuerier)
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
// upgraded (see the package comment) and the reuse buffer stripped —
// per-partition results cannot share one buffer.
func (e *Engine) partSpec(spec core.QuerySpec) core.QuerySpec {
	if len(e.parts) > 1 && spec.Method == core.VoronoiBFS {
		spec.Method = core.VoronoiBFSStrict
	}
	spec.Dest = nil
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
	pairs []pair    // region-major: a region's pairs are contiguous
	ids   [][]int64 // each pair's global ids; nil under CountOnly
}

// scatter plans regions × partitions, runs the plan on the pool and folds
// the partitions' statistics into agg. The error is the caller's context
// error if it is done — whatever the partitions reported — and otherwise
// the first partition failure.
func (e *Engine) scatter(ctx context.Context, regions []core.Region, spec core.QuerySpec, agg *core.Stats) (scattered, error) {
	var sc scattered
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
		return sc, ctx.Err()
	}
	pspec := e.partSpec(spec)
	if !spec.CountOnly {
		sc.ids = make([][]int64, len(sc.pairs))
	}

	// A task is the pairs (as indexes into sc.pairs) one partition answers
	// in one call: a single pair — a full partition query, expensive enough
	// that Chunk 1 is the right steal size — except that a RegionsQuerier
	// takes all its pairs of a batch at once.
	tasks := make([][]int32, 0, len(sc.pairs))
	single := make([]int32, len(sc.pairs))
	var grouped [][]int32
	for i, pr := range sc.pairs {
		single[i] = int32(i)
		if len(regions) > 1 && e.batch[pr.part] != nil {
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

	opts := exec.Options{NumWorkers: e.parallelism, Chunk: 1}
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
			var ids []int64
			ids, st, err = e.parts[part].Query(ctx, regions[sc.pairs[i].region], pspec)
			if err == nil && sc.ids != nil {
				sc.ids[i] = ids
			}
		} else {
			sub := make([]core.Region, len(tk))
			for j, i := range tk {
				sub[j] = regions[sc.pairs[i].region]
			}
			var res [][]int64
			res, st, err = e.batch[part].QueryRegions(ctx, sub, pspec)
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
			return e.partErr(ctx, part, err)
		}
		return nil
	})
	for _, ws := range workerStats {
		agg.Add(ws)
	}
	// Cancellation beats a partition failure: a partition that failed
	// because the caller gave up reports the caller's error.
	if err := ctx.Err(); err != nil {
		return sc, err
	}
	if runErr != nil {
		return sc, fmt.Errorf("shard: %w", runErr)
	}
	return sc, nil
}

// gather reduces a scatter region by region: merge the partitions' ids
// into ascending order (into dst, when given). out receives each region's
// ids. agg is finalized with the total result size, which under CountOnly
// is the partitions' summed ResultSize, already in agg.
func gather(sc *scattered, spec core.QuerySpec, dst []int64, out [][]int64, agg *core.Stats) {
	var mergeStart time.Time
	if spec.Trace != nil {
		mergeStart = time.Now()
	}
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
	if spec.Trace != nil {
		spec.Trace.Add(obs.PhaseMerge, time.Since(mergeStart))
	}
	agg.ResultSize = total
}

// mergeSorted concatenates per-partition global id slices into dst
// (reusing its capacity; nil for a fresh slice) and sorts them ascending,
// the canonical result order. An empty result with a reuse buffer is
// dst[:0], not nil — the unpartitioned engines' Dest contract.
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
	var agg core.Stats
	regions := [1]core.Region{region}
	sc, err := e.scatter(ctx, regions[:], spec, &agg)
	if err != nil {
		return nil, agg, err
	}
	var out [1][]int64
	gather(&sc, spec, spec.Dest, out[:], &agg)
	return out[0], agg, nil
}

// QueryRegionsSpec answers a batch: results align with regions, each in
// ascending global order. With spec.CountOnly the result is nil and the
// aggregate match count is Stats.ResultSize. spec.Dest is ignored (one
// buffer cannot back a batch of results). Cancellation abandons
// un-dispatched tasks.
func (e *Engine) QueryRegionsSpec(ctx context.Context, regions []core.Region, spec core.QuerySpec) ([][]int64, core.Stats, error) {
	var agg core.Stats
	sc, err := e.scatter(ctx, regions, spec, &agg)
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
	var agg core.Stats
	alive := e.survivors(nil, region)
	e.observeFanOut(spec.Trace, len(alive))
	pspec := e.partSpec(spec)
	pspec.CountOnly = false
	stopped := false
	each := func(id int64, pos geom.Point) bool {
		stopped = !yield(id, pos)
		return !stopped
	}
	for _, pi := range alive {
		if ctx.Err() != nil {
			break
		}
		t0 := e.partStart()
		st, err := e.parts[pi].Each(ctx, region, pspec, each)
		e.partDone(t0)
		agg.Add(st)
		if err != nil {
			return agg, fmt.Errorf("shard: %w", e.partErr(ctx, pi, err))
		}
		if stopped {
			break
		}
	}
	return agg, ctx.Err()
}
