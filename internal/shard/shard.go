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
//   - Scatter: a single query is a batch of one region, and both run one
//     plan, taken from a pool with all its slices. A plan is one task per
//     (region, partition) pair, except that a partition offering
//     RegionsQuerier answers all its regions of a batch of several in one
//     call. A pair's task lends its partition a pooled id buffer as
//     spec.Dest, so a warm scatter grows no answer from nil — except the
//     plan's only pair, which answers into the caller's buffer. The plan's
//     tasks run on the exec pool, with per-task statistics; the pool
//     calls a sole task on the calling goroutine. A warm scatter allocates
//     nothing of its own.
//   - Fail fast: a failed partition fails the query, with the first
//     partition error — there is no partial answer, because a missing
//     partition leaves a hole in the tiling the union rests on. A single
//     query's error names no region; a batch names the failing region by
//     its index in the batch, except when the failed call was a
//     RegionsQuerier's, which answers several. A done caller context
//     always wins: its error is the query's, whatever the partitions
//     reported, and a call it cut short is not counted as a partition
//     failure in Dropped.
//   - Gather: per region, copy the partitions' ids into the caller's
//     buffer (or a fresh slice sized to the result) — the plan's only
//     pair's ids are already there — sort them into ascending global id
//     order and count; then every lent buffer goes back to its pool, so no
//     result the caller holds shares memory with it. Under CountOnly
//     nothing is merged: the count is the partitions' summed ResultSize.
//
// Every path takes a context.Context: cancellation abandons un-dispatched
// tasks at the pool, running partition calls at their own boundaries, and
// surfaces as ctx.Err() with the statistics of the work already done.
package shard

import (
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
	// spec.CountOnly (the count is Stats.ResultSize). A partition appends
	// its ids into spec.Dest (from Dest[:0]; an empty answer is Dest[:0]
	// when Dest is not nil), and the ids it returns are the kernel's to
	// sort and to reuse: the caller's buffer when the partition is the
	// query's only pair, a pooled one the kernel takes back after the
	// merge otherwise.
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
	parts      []Partition
	partBounds []geom.Rect // parts[i].Bounds(), read once
	batchers   []bool      // parts[i] is a RegionsQuerier
	length     int
	bounds     geom.Rect
	pool       exec.Options // the scatter's worker pool
	dropped    atomic.Uint64
	met        *Metrics
}

// Over builds the kernel over explicit partitions. universe is the
// rectangle every partition clips its cells to — what Bounds reports — and
// must be a real one, never derived from the partitions' pruning keys,
// whose union may be smaller. parallelism bounds the scatter's worker pool
// (<= 0 means runtime.GOMAXPROCS); met may be nil.
func Over(parts []Partition, universe geom.Rect, parallelism int, met *Metrics) *Engine {
	e := &Engine{
		parts:      parts,
		partBounds: make([]geom.Rect, len(parts)),
		batchers:   make([]bool, len(parts)),
		bounds:     universe,
		pool:       exec.Options{NumWorkers: parallelism},
		met:        met,
	}
	if met != nil {
		e.pool.Metrics = met.Exec
	}
	for i, p := range parts {
		e.partBounds[i] = p.Bounds()
		_, e.batchers[i] = p.(RegionsQuerier)
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
// upgraded (see the package comment) and no Dest.
func (e *Engine) partSpec(spec core.QuerySpec) core.QuerySpec {
	spec.Dest = nil
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

// pair is the unit of scattered work — one region on one partition that
// survived pruning for it — and its answer.
type pair struct {
	region, part int32
	ids          []int64  // global ids; nil under CountOnly
	buf          *[]int64 // the idBufs buffer a single-pair task lent, or nil
}

// plan is one scatter's whole working state, from pruning to release. It
// comes from plans and is reset by length, so a warm scatter allocates
// none of it; release drops every reference it holds before it goes back.
type plan struct {
	e       *Engine
	ctx     context.Context
	spec    core.QuerySpec             // the partitions' spec: method upgraded, no Dest
	dest    []int64                    // the caller's Dest; nil for a batch
	batch   bool                       // a task's error names its region
	sole    bool                       // one task of one pair: it answers into dest
	alive   []int                      // one region's survivors, reused region by region
	pairs   []pair                     // region-major: a region's pairs are contiguous
	order   []int32                    // pair indexes, task by task
	regions []core.Region              // each pair's region, aligned with order
	cuts    []int32                    // task ti is order[cuts[ti]:cuts[ti+1]]
	stats   []core.Stats               // per task
	run     func(worker, ti int) error // p.task, bound once per pooled plan
}

// plans holds the kernel's plans, each with its task method bound once.
var plans = sync.Pool{New: func() any {
	p := new(plan)
	p.run = p.task
	return p
}}

// idBufs holds the buffers a task lends its partition as spec.Dest.
var idBufs = sync.Pool{New: func() any { return new([]int64) }}

// query is the kernel's one query path: plan regions × partitions, run
// the plan, gather it into out, which aligns with regions, and add its
// statistics to agg. The error is the caller's context error if it is
// done — whatever the partitions reported — and otherwise the first
// partition failure.
func (e *Engine) query(ctx context.Context, regions []core.Region, spec core.QuerySpec, batch bool, out [][]int64, agg *core.Stats) error {
	if err := core.CheckMethod(spec.Method); err != nil {
		return err
	}
	p := plans.Get().(*plan)
	defer p.release()
	p.build(e, ctx, regions, spec, batch)
	err := p.scatter(agg)
	if err == nil {
		p.gather(out, agg)
	}
	return err
}

// build prunes every region, observing its fan-out, and cuts the
// surviving pairs into tasks: one per pair, except that a RegionsQuerier
// takes all its pairs of a batch of several regions in one call.
func (p *plan) build(e *Engine, ctx context.Context, regions []core.Region, spec core.QuerySpec, batch bool) {
	p.e, p.ctx, p.spec, p.dest, p.batch = e, ctx, e.partSpec(spec), spec.Dest, batch
	p.pairs = p.pairs[:0]
	for qi, region := range regions {
		p.alive = e.survivors(p.alive[:0], region)
		e.observeFanOut(spec.Trace, len(p.alive))
		for _, pi := range p.alive {
			p.pairs = append(p.pairs, pair{region: int32(qi), part: int32(pi)})
		}
	}
	grouped := func(pi int) bool { return len(regions) > 1 && e.batchers[pi] }
	p.order, p.regions, p.cuts = p.order[:0], p.regions[:0], append(p.cuts[:0], 0)
	for i, pr := range p.pairs {
		if !grouped(int(pr.part)) {
			p.order = append(p.order, int32(i))
			p.regions = append(p.regions, regions[pr.region])
			p.cuts = append(p.cuts, int32(len(p.order)))
		}
	}
	for pi := range e.parts {
		if !grouped(pi) {
			continue
		}
		lo := len(p.order)
		for i, pr := range p.pairs {
			if int(pr.part) == pi {
				p.order = append(p.order, int32(i))
				p.regions = append(p.regions, regions[pr.region])
			}
		}
		if len(p.order) > lo {
			p.cuts = append(p.cuts, int32(len(p.order)))
		}
	}
	p.sole = len(p.order) == 1
}

// scatter runs the plan's tasks on the exec pool, which calls a sole task
// on the calling goroutine, and adds the tasks' statistics to agg.
func (p *plan) scatter(agg *core.Stats) error {
	n := len(p.cuts) - 1
	p.stats = append(p.stats[:0], make([]core.Stats, n)...) // zeroed, not allocated
	runErr := exec.Run(p.ctx, n, p.e.pool, p.run)
	for i := range p.stats {
		agg.Add(p.stats[i])
	}
	// Cancellation beats a partition failure: a partition that failed
	// because the caller gave up reports the caller's error.
	if err := p.ctx.Err(); err != nil {
		return err
	}
	if runErr != nil {
		return fmt.Errorf("shard: %w", runErr)
	}
	return nil
}

// task runs task ti: one partition call. A single-pair call
// answers into the caller's Dest when it is the plan's only pair, and into
// a pooled id buffer otherwise. A batch names the failing region in the
// error, unless the call answered several.
func (p *plan) task(_, ti int) error {
	e, ctx, lo, hi := p.e, p.ctx, p.cuts[ti], p.cuts[ti+1]
	tk := p.order[lo:hi]
	part, st, err := int(p.pairs[tk[0]].part), core.Stats{}, error(nil)
	t0 := e.partStart()
	if len(tk) == 1 {
		pr := &p.pairs[tk[0]]
		spec := p.spec
		switch {
		case spec.CountOnly:
		case p.sole:
			spec.Dest = p.dest
		default:
			pr.buf = idBufs.Get().(*[]int64)
			spec.Dest = (*pr.buf)[:0]
		}
		pr.ids, st, err = e.parts[part].Query(ctx, p.regions[lo], spec)
	} else {
		var res [][]int64
		res, st, err = e.parts[part].(RegionsQuerier).QueryRegions(ctx, p.regions[lo:hi], p.spec)
		switch {
		case err != nil || p.spec.CountOnly:
		case len(res) != len(tk):
			err = fmt.Errorf("batch answered %d results for %d regions", len(res), len(tk))
		default:
			for j, i := range tk {
				p.pairs[i].ids = res[j]
			}
		}
	}
	e.partDone(t0)
	p.stats[ti] = st
	if err != nil {
		err = e.partErr(ctx, part, err)
		if p.batch && len(tk) == 1 {
			err = fmt.Errorf("region %d: %w", p.pairs[tk[0]].region, err)
		}
	}
	return err
}

// gather reduces the plan region by region: merge the partitions' ids
// into ascending order (into the caller's Dest, when given), or sort the
// sole pair's, already there, in place. out receives each region's ids.
// agg is finalized with the total result size, which under CountOnly is
// the partitions' summed ResultSize, already in agg.
func (p *plan) gather(out [][]int64, agg *core.Stats) {
	var t0 time.Time // the merge phase's start; read only for a trace
	if p.spec.Trace != nil {
		t0 = time.Now()
	}
	if !p.spec.CountOnly {
		agg.ResultSize = 0
		lo := 0
		for qi := range out {
			hi := lo
			for hi < len(p.pairs) && int(p.pairs[hi].region) == qi {
				hi++
			}
			if p.sole && hi > lo {
				out[qi] = p.pairs[lo].ids
				core.SortIDs(out[qi])
			} else {
				out[qi] = mergeSorted(p.dest, p.pairs[lo:hi])
			}
			agg.ResultSize += len(out[qi])
			lo = hi
		}
	}
	if p.spec.Trace != nil {
		p.spec.Trace.Add(obs.PhaseMerge, time.Since(t0))
	}
}

// release returns each lent buffer to idBufs, keeping the larger of its
// own capacity and its answer's, drops every reference and puts the plan
// back. No slice gather produced aliases a buffer: mergeSorted always
// copies, and a sole pair was lent none.
func (p *plan) release() {
	for i := range p.pairs {
		if pr := &p.pairs[i]; pr.buf != nil {
			if cap(pr.ids) > cap(*pr.buf) {
				*pr.buf = pr.ids[:0]
			}
			idBufs.Put(pr.buf)
		}
	}
	clear(p.regions)
	clear(p.pairs)
	p.e, p.ctx, p.spec, p.dest = nil, nil, core.QuerySpec{}, nil
	plans.Put(p)
}

// mergeSorted concatenates the pairs' global ids into dst (reusing its
// capacity; nil for a fresh slice sized to the result) and sorts them
// ascending, the canonical result order. It always copies: a pair's ids
// may be a pooled buffer that release hands to the next query. An empty
// result with a reuse buffer is dst[:0], not nil — the Dest contract of
// core.Engine.
func mergeSorted(dst []int64, pairs []pair) []int64 {
	total := 0
	for _, pr := range pairs {
		total += len(pr.ids)
	}
	dst = slices.Grow(dst[:0], total)
	for _, pr := range pairs {
		dst = append(dst, pr.ids...)
	}
	core.SortIDs(dst)
	return dst
}

// QueryRegionSpec answers one area query — a batch of one region whose
// error names no region: ids in ascending global order, backed by
// spec.Dest when given. spec.CountOnly skips the merge (the count is
// Stats.ResultSize).
func (e *Engine) QueryRegionSpec(ctx context.Context, region core.Region, spec core.QuerySpec) ([]int64, core.Stats, error) {
	var st core.Stats
	var out [1][]int64 // nil on error: gather never ran
	err := e.query(ctx, []core.Region{region}, spec, false, out[:], &st)
	return out[0], st, err
}

// QueryRegionsSpec answers a batch: results align with regions, each in
// ascending global order. With spec.CountOnly the result is nil and the
// aggregate match count is Stats.ResultSize. spec.Dest is ignored (one
// buffer cannot back a batch of results). Cancellation abandons
// un-dispatched tasks.
func (e *Engine) QueryRegionsSpec(ctx context.Context, regions []core.Region, spec core.QuerySpec) ([][]int64, core.Stats, error) {
	var out [][]int64
	if !spec.CountOnly && len(regions) > 0 {
		out = make([][]int64, len(regions))
	}
	spec.Dest = nil
	var st core.Stats
	if err := e.query(ctx, regions, spec, true, out, &st); err != nil {
		return nil, st, err
	}
	return out, st, nil
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
