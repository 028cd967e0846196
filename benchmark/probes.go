package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"time"

	vaq "repro"
	"repro/internal/core"
	"repro/internal/delaunay"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/voronoi"
	"repro/internal/wire"
)

// prober measures the per-layer metrics by calling each layer's public
// functions directly. Structures that do not depend on the pool under test
// are built once and their numbers memoized, so a full run pays for them
// once rather than once per workload.
type prober struct {
	ctx context.Context
	in  *inputs
	rec *recorder // probe spans go here when set
	op  int       // operation id of the next probe span

	generic *genericRig
	fixed   map[string]float64 // pool-independent metrics, filled on first use
}

func newProber(ctx context.Context, in *inputs) *prober {
	return &prober{ctx: ctx, in: in}
}

// layerMetrics returns every per-layer metric. The rtree, core, vaq and
// exec numbers are taken on pool, the pool of the workload being traced;
// storage, remote and dynamic use the area pool and shard the mixed pool,
// as their workloads do.
func (p *prober) layerMetrics(pool []shape, rec *recorder, firstOp int) (map[string]float64, error) {
	p.rec, p.op = rec, firstOp
	if p.fixed == nil {
		p.fixed = make(map[string]float64)
		// The storage probe shares the generic rig's R-tree and the remote
		// probe its static engine, so the rig is built first.
		for _, probe := range []struct {
			name string
			run  func(map[string]float64) error
		}{
			{"generic rig", p.buildGeneric}, {"storage", p.probeStorage}, {"shard", p.probeShard},
			{"dynamic", p.probeDynamic}, {"remote", p.probeRemote},
		} {
			t0 := time.Now()
			if err := probe.run(p.fixed); err != nil {
				return nil, err
			}
			fmt.Fprintf(logOut, "probe %s: %.1fs\n", probe.name, time.Since(t0).Seconds())
		}
	}
	t0 := time.Now()
	m := maps.Clone(p.fixed)
	if err := p.probePool(pool, m); err != nil {
		return nil, err
	}
	fmt.Fprintf(logOut, "probe pool: %.1fs\n", time.Since(t0).Seconds())
	return m, nil
}

// probeReps is how many times a probe goes over its regions. Each region
// keeps the smallest duration it showed, for the reason the end-to-end
// timings do (see floors).
const probeReps = 3

// timeEach makes reps passes of fn(i) for i in [0, n) and returns each i's
// floor duration in nanoseconds. With a recorder attached and a name
// given, every call of the first pass also becomes a probe span on region
// i; only the probes of the pool under test are named, so a trace file
// holds spans of its own workload's regions alone. Counters that fn
// accumulates grow reps times as large as one pass.
func (p *prober) timeEach(name string, reps, n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for rep := 0; rep < reps; rep++ {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			fn(i)
			d := time.Since(t0)
			if ns := float64(d.Nanoseconds()); rep == 0 || ns < out[i] {
				out[i] = ns
			}
			if p.rec != nil && name != "" && rep == 0 {
				p.op++
				end := p.rec.now()
				p.rec.add(span{Op: p.op, Name: name, Region: i, Start: end - d.Nanoseconds(), End: end})
			}
		}
	}
	return out
}

// genericRig is the in-memory engine taken apart: the R-tree, the record
// layer with its Voronoi topology, the core engine over both, and the
// public engine the adapter cost is measured against.
type genericRig struct {
	idx     *core.RTreeIndex
	mem     *core.MemoryData
	coreEng *core.Engine
	vaqEng  *vaq.Engine
}

const (
	rtreeFanout = 16      // vaq's default
	probeFlavor = "probe" // flavor label on traces the probes reset
)

func (p *prober) buildGeneric(m map[string]float64) error {
	in := p.in
	rig := &genericRig{}
	var builds []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		rig.idx = core.NewRTreeIndex(in.data, rtreeFanout)
		builds = append(builds, time.Since(t0).Seconds())
	}
	m["rtree.bulk_build_s"] = median(builds)

	t0 := time.Now()
	tri, err := delaunay.Build(in.data)
	if err != nil {
		return fmt.Errorf("delaunay.Build: %w", err)
	}
	m["delaunay.build_s"] = time.Since(t0).Seconds()
	diagram := voronoi.FromTriangulation(tri, in.bounds)
	t0 = time.Now()
	arena := voronoi.BuildCellArena(diagram)
	m["voronoi.arena_build_s"] = time.Since(t0).Seconds()
	m["voronoi.arena_bytes_per_site"] = float64(arena.Bytes()) / float64(len(in.data))
	p.probeGeom(rig.idx, tri, arena, m)

	if rig.mem, err = core.NewMemoryData(in.data, in.bounds); err != nil {
		return fmt.Errorf("core.NewMemoryData: %w", err)
	}
	rig.coreEng = core.NewEngine(rig.idx, rig.mem)
	if rig.vaqEng, err = vaq.NewEngine(in.data, in.bounds); err != nil {
		return err
	}
	p.generic = rig
	return nil
}

// probeGeom times the three region predicates the expansion calls, on the
// prepared area regions, against the inputs the engine would hand them:
// the points inside each region's MBR, the Delaunay edges leaving those
// points, and their packed Voronoi cells.
func (p *prober) probeGeom(idx *core.RTreeIndex, tri *delaunay.Triangulation, arena *voronoi.CellArena, m map[string]float64) {
	in := p.in
	perRegion := in.sc.geomCalls / len(in.area)
	var containsNs, segmentNs, ringNs, calls int64
	hits := 0
	for ri := range in.area {
		region := in.area[ri].region
		var (
			pts   []geom.Point
			segs  []geom.Segment
			rings []geom.RingView
		)
		idx.Window(region.Bounds(), func(id int64) bool {
			pts = append(pts, in.data[id])
			rings = append(rings, arena.Ring(int(id)))
			for _, nb := range tri.Neighbors(int(id)) {
				if int64(nb) > id {
					segs = append(segs, geom.Segment{A: in.data[id], B: in.data[nb]})
				}
			}
			return true
		})
		if len(pts) == 0 || len(segs) == 0 {
			continue
		}
		ringer := region.(core.RingViewIntersecter)
		t0 := time.Now()
		for j := 0; j < perRegion; j++ {
			if region.ContainsPoint(pts[j%len(pts)]) {
				hits++
			}
		}
		t1 := time.Now()
		for j := 0; j < perRegion; j++ {
			if region.IntersectsSegment(segs[j%len(segs)]) {
				hits++
			}
		}
		t2 := time.Now()
		for j := 0; j < perRegion; j++ {
			if ringer.IntersectsRingView(rings[j%len(rings)]) {
				hits++
			}
		}
		t3 := time.Now()
		containsNs += t1.Sub(t0).Nanoseconds()
		segmentNs += t2.Sub(t1).Nanoseconds()
		ringNs += t3.Sub(t2).Nanoseconds()
		calls += int64(perRegion)
	}
	if hits < 0 || calls == 0 { // hits keeps the predicate calls alive
		return
	}
	m["geom.contains_ns"] = float64(containsNs) / float64(calls)
	m["geom.segment_ns"] = float64(segmentNs) / float64(calls)
	m["geom.ringview_ns"] = float64(ringNs) / float64(calls)
}

// probePool takes the pool-dependent numbers: the R-tree seed and window,
// the core engine against the public engine, the traditional baseline, and
// the batch executor.
func (p *prober) probePool(pool []shape, m map[string]float64) error {
	rig, ctx := p.generic, p.ctx
	n := len(pool)
	regions := regionsOf(pool)
	anchors := make([]geom.Point, n)
	for i, r := range regions {
		anchors[i] = r.InteriorPoint()
	}

	calls := float64(probeReps * n)
	nodes := 0
	seed := p.timeEach("rtree.Nearest", probeReps, n, func(i int) {
		_, visited, _ := rig.idx.Nearest(anchors[i])
		nodes += visited
	})
	m["rtree.seed_ns"] = median(seed)
	m["rtree.seed_nodes"] = float64(nodes) / calls
	mallocs0 := mallocCount()
	for i := 0; i < n; i++ {
		rig.idx.Nearest(anchors[i])
	}
	m["rtree.seed_allocs"] = float64(mallocCount()-mallocs0) / float64(n)

	nodes = 0
	seen := 0
	count := func(int64) bool { seen++; return true }
	window := p.timeEach("rtree.Window", probeReps, n, func(i int) {
		nodes += rig.idx.Window(regions[i].Bounds(), count)
	})
	m["rtree.window_ns"] = median(window)
	m["rtree.window_nodes"] = float64(nodes) / calls

	// Core against the public engine on the same regions.
	var (
		buf       []int64
		firstErr  error
		spec      = core.QuerySpec{Method: core.VoronoiBFS}
		queryCore = func(i int) {
			spec.Dest = buf
			ids, _, err := rig.coreEng.QueryRegionSpec(ctx, regions[i], spec)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if ids != nil {
				buf = ids[:0]
			}
		}
		queryPublic = func(i int) {
			ids, err := rig.vaqEng.Query(ctx, regions[i], vaq.Reuse(buf))
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if ids != nil {
				buf = ids[:0]
			}
		}
	)
	for i := 0; i < n; i++ { // warm both
		queryCore(i)
		queryPublic(i)
	}
	coreNs := p.timeEach("core.QueryRegionSpec", probeReps, n, queryCore)
	pubNs := p.timeEach("", probeReps, n, queryPublic)
	if firstErr != nil {
		return fmt.Errorf("core probe: %w", firstErr)
	}
	m["core.query_us"] = median(coreNs) / 1e3
	m["vaq.adapter_us"] = (median(pubNs) - median(coreNs)) / 1e3

	var (
		tr    obs.QueryTrace
		total core.Stats
	)
	seedNs, expNs := make([]float64, n), make([]float64, n)
	spec = core.QuerySpec{Method: core.VoronoiBFS, Trace: &tr}
	for rep := 0; rep < probeReps; rep++ {
		for i := 0; i < n; i++ {
			spec.Dest = buf
			tr.Begin(probeFlavor, "") // core accrues into a trace; only vaq resets it
			ids, st, err := rig.coreEng.QueryRegionSpec(ctx, regions[i], spec)
			if err != nil {
				return fmt.Errorf("core traced probe: %w", err)
			}
			buf = ids[:0]
			if rep == 0 {
				total.Add(st)
			}
			keepFloor(seedNs, i, rep, tr.Phase(obs.PhaseSeed))
			keepFloor(expNs, i, rep, tr.Phase(obs.PhaseExpand))
		}
	}
	m["core.seed_us"] = median(seedNs) / 1e3
	m["core.expand_us"] = median(expNs) / 1e3
	m["core.segment_tests_per_query"] = float64(total.SegmentTests) / float64(n)
	m["core.index_nodes_per_query"] = float64(total.IndexNodesVisited) / float64(n)
	m["core.records_loaded_per_query"] = float64(total.RecordsLoaded) / float64(n)
	m["core.useful_ratio"] = ratio(total.ResultSize, total.Candidates)

	total = core.Stats{}
	spec = core.QuerySpec{Method: core.Traditional}
	trad := p.timeEach("core.QueryRegionSpec(traditional)", probeReps, n, func(i int) {
		spec.Dest = buf
		ids, st, err := rig.coreEng.QueryRegionSpec(ctx, regions[i], spec)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if ids != nil {
			buf = ids[:0]
		}
		total.Add(st)
	})
	if firstErr != nil {
		return fmt.Errorf("traditional probe: %w", firstErr)
	}
	m["core.traditional_us"] = median(trad) / 1e3
	m["core.traditional_candidates_per_result"] = ratio(total.Candidates, total.ResultSize)

	// The batch executor, at the benchmark's two workers and at one.
	spec = core.QuerySpec{Method: core.VoronoiBFS}
	wall := map[int][]float64{}
	for rep := 0; rep < probeReps; rep++ {
		for _, workers := range []int{systemWorkers, 1} {
			t0 := time.Now()
			if _, _, err := exec.QueryBatch(ctx, rig.coreEng, regions, spec, exec.Options{NumWorkers: workers}); err != nil {
				return fmt.Errorf("exec probe: %w", err)
			}
			wall[workers] = append(wall[workers], float64(time.Since(t0).Nanoseconds()))
		}
	}
	m["exec.batch_us_per_query"] = slices.Min(wall[systemWorkers]) / 1e3 / float64(n)
	m["exec.speedup"] = slices.Min(wall[1]) / slices.Min(wall[systemWorkers])
	return nil
}

// keepFloor stores d at floor[i] on the first pass and when it is smaller.
func keepFloor(floor []float64, i, rep int, d time.Duration) {
	if ns := float64(d.Nanoseconds()); rep == 0 || ns < floor[i] {
		floor[i] = ns
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// probeStorage takes the paged store apart: the core engine over a
// StoreData built as store-cold builds it, one traced steady-state pass of
// the area pool for fetch time and pool behaviour, then Store.Get alone.
func (p *prober) probeStorage(m map[string]float64) error {
	in, ctx := p.in, p.ctx
	cfg := storeConfig
	cfg.PoolShards = poolShards
	sd, err := core.NewStoreData(in.data, in.bounds, cfg)
	if err != nil {
		return fmt.Errorf("core.NewStoreData: %w", err)
	}
	eng := core.NewEngine(p.generic.idx, sd)
	var (
		tr  obs.QueryTrace
		buf []int64
	)
	fetchNs := make([]float64, len(in.area))
	spec := core.QuerySpec{Method: core.VoronoiBFS, Trace: &tr}
	// The first pass brings the pool to its steady state and is dropped;
	// the IO counters are those of the last pass alone.
	for pass := -1; pass < probeReps; pass++ {
		sd.ResetIOStats()
		for ri := range in.area {
			spec.Dest = buf
			tr.Begin(probeFlavor, "")
			ids, _, err := eng.QueryRegionSpec(ctx, in.area[ri].region, spec)
			if err != nil {
				return fmt.Errorf("storage probe: %w", err)
			}
			buf = ids[:0]
			if pass >= 0 {
				keepFloor(fetchNs, ri, pass, tr.Phase(obs.PhasePageFetch))
			}
		}
	}
	io := sd.IOStats()
	q := float64(len(in.area))
	m["storage.fetch_us"] = median(fetchNs) / 1e3
	m["storage.hit_rate"] = io.HitRate()
	m["storage.evictions_per_query"] = float64(io.Evictions) / q
	m["storage.bytes_read_per_query"] = float64(io.BytesRead) / q
	m["page_reads_per_query"] = float64(io.PageReads) / q

	// Store.Get on its own: ids a page apart miss after DropCache, and the
	// same id again hits.
	st := sd.Store()
	step := max(1, len(in.data)/1024)
	var ids []int64
	for id := 0; id < len(in.data) && len(ids) < cfg.PoolPages/2; id += step {
		ids = append(ids, int64(id))
	}
	st.DropCache()
	miss := p.timeEach("", 1, len(ids), func(i int) {
		if _, e := st.Get(ids[i]); e != nil && err == nil {
			err = e
		}
	})
	hit := p.timeEach("", probeReps, len(ids), func(i int) {
		if _, e := st.Get(ids[i]); e != nil && err == nil {
			err = e
		}
	})
	mallocs0 := mallocCount()
	for _, id := range ids {
		if _, e := st.Get(id); e != nil && err == nil {
			err = e
		}
	}
	m["storage.allocs_per_get"] = float64(mallocCount()-mallocs0) / float64(len(ids))
	if err != nil {
		return fmt.Errorf("Store.Get probe: %w", err)
	}
	m["storage.get_miss_ns"] = median(miss)
	m["storage.get_hit_ns"] = median(hit)
	return nil
}

// probeShard takes the sharded engine apart on the mixed pool. The shard
// engines are built once and shared by two shard.Engines: one as the
// workload configures it, instrumented, and one with parallelism 1 whose
// scatter is sequential, so that its time minus the time of the shard
// queries it fanned out to is the scatter-gather's own.
func (p *prober) probeShard(m map[string]float64) error {
	in, ctx := p.in, p.ctx
	regions := regionsOf(in.mixed)
	n := len(regions)
	built := make([]*core.Engine, shardCount)
	build := func(si int, pts []geom.Point, bounds geom.Rect) (*core.Engine, error) {
		if built[si] == nil { // distinct si per call
			data, err := core.NewMemoryData(pts, bounds)
			if err != nil {
				return nil, err
			}
			built[si] = core.NewEngine(core.NewRTreeIndex(pts, rtreeFanout), data)
		}
		return built[si], nil
	}
	reg := obs.NewRegistry()
	sm := &shard.Metrics{
		FanOut:       reg.Histogram("vaq_shard_fanout"),
		ShardsPruned: reg.Counter("vaq_shard_pruned_total"),
		ShardQueries: reg.Counter("vaq_shard_queries_total"),
		ShardLatency: reg.Histogram("vaq_shard_latency_ns"),
		Exec: &exec.Metrics{
			ChunkWait:  reg.Histogram("vaq_exec_chunk_wait_ns"),
			WorkerBusy: reg.Histogram("vaq_exec_worker_busy_ns"),
		},
	}
	par, err := shard.New(in.data, in.bounds, shard.Config{Shards: shardCount, Parallelism: systemWorkers, Build: build, Metrics: sm})
	if err != nil {
		return fmt.Errorf("shard.New: %w", err)
	}
	seq, err := shard.New(in.data, in.bounds, shard.Config{Shards: shardCount, Parallelism: 1, Build: build})
	if err != nil {
		return fmt.Errorf("shard.New: %w", err)
	}

	var (
		tr       obs.QueryTrace
		total    core.Stats
		firstErr error
	)
	spec := core.QuerySpec{Method: core.VoronoiBFS}
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for i := 0; i < n; i++ { // warm
		_, _, err := par.QueryRegionSpec(ctx, regions[i], spec)
		note(err)
	}
	sm.FanOut.Reset()
	pruned0 := sm.ShardsPruned.Value()
	queryNs := p.timeEach("", probeReps, n, func(i int) {
		_, st, err := par.QueryRegionSpec(ctx, regions[i], spec)
		note(err)
		total.Add(st)
	})
	calls := float64(probeReps * n)
	m["shard.query_us"] = median(queryNs) / 1e3
	m["shard.fanout_per_query"] = sm.FanOut.Snapshot().Mean()
	m["shard.pruned_per_query"] = float64(sm.ShardsPruned.Value()-pruned0) / calls
	m["core.cell_tests_per_query"] = float64(total.CellTests) / calls

	spec.Trace = &tr
	mergeNs := make([]float64, n)
	for rep := 0; rep < probeReps; rep++ {
		for i := 0; i < n; i++ {
			tr.Begin(probeFlavor, "")
			_, _, err := par.QueryRegionSpec(ctx, regions[i], spec)
			note(err)
			keepFloor(mergeNs, i, rep, tr.Phase(obs.PhaseMerge))
		}
	}
	m["shard.merge_us"] = median(mergeNs) / 1e3

	// Sequential scatter against the shard queries it is made of.
	spec = core.QuerySpec{Method: core.VoronoiBFS}
	strict := core.QuerySpec{Method: core.VoronoiBFSStrict}
	whole := p.timeEach("", probeReps, n, func(i int) {
		_, _, err := seq.QueryRegionSpec(ctx, regions[i], spec)
		note(err)
	})
	var selfNs, straggler []float64
	for i := 0; i < n; i++ {
		var hit []int // the shards the scatter does not prune
		for si := 0; si < seq.NumShards(); si++ {
			if seq.ShardBounds(si).Intersects(regions[i].Bounds()) {
				hit = append(hit, si)
			}
		}
		if len(hit) == 0 {
			continue
		}
		parts := p.timeEach("", probeReps, len(hit), func(k int) {
			_, _, err := seq.ShardEngine(hit[k]).QueryRegionSpec(ctx, regions[i], strict)
			note(err)
		})
		selfNs = append(selfNs, whole[i]-sum(parts))
		straggler = append(straggler, slices.Max(parts)/mean(parts))
	}
	m["shard.self_us"] = median(selfNs) / 1e3
	m["shard.straggler_ratio"] = mean(straggler)

	// Batches, as sharded-batch issues them: the exec pool's own series,
	// then the latency of the public QueryAll.
	sm.Exec.ChunkWait.Reset()
	sm.Exec.WorkerBusy.Reset()
	var wallNs float64
	for lo := 0; lo+in.sc.batch <= n; lo += in.sc.batch {
		t0 := time.Now()
		_, _, err := par.QueryRegionsSpec(ctx, regions[lo:lo+in.sc.batch], spec)
		wallNs += float64(time.Since(t0).Nanoseconds())
		note(err)
	}
	m["exec.chunk_wait_us"] = sm.Exec.ChunkWait.Snapshot().Mean() / 1e3
	m["exec.worker_busy_frac"] = float64(sm.Exec.WorkerBusy.Snapshot().Sum) / (systemWorkers * wallNs)

	pub, err := vaq.NewShardedEngine(in.data, in.bounds, vaq.WithShards(shardCount), vaq.WithParallelism(systemWorkers))
	if err != nil {
		return err
	}
	var batchNs []int64
	for pass := -1; pass < probeBatchPasses; pass++ { // the first pass warms
		for lo := 0; lo+in.sc.batch <= n; lo += in.sc.batch {
			t0 := time.Now()
			_, err := pub.QueryAll(ctx, regions[lo:lo+in.sc.batch])
			d := time.Since(t0).Nanoseconds()
			note(err)
			if pass >= 0 {
				batchNs = append(batchNs, d)
			}
		}
	}
	if firstErr != nil {
		return fmt.Errorf("shard probe: %w", firstErr)
	}
	perBatch := floors(batchNs, n/in.sc.batch)
	sort.Float64s(perBatch)
	m["batch_p50_ms"] = percentile(perBatch, 0.50) / 1e6
	m["batch_p99_ms"] = percentile(perBatch, 0.99) / 1e6
	return nil
}

// probeBatchPasses is how many passes of the mixed pool the traced run
// times QueryAll over for batch_p50_ms and batch_p99_ms, which are
// percentiles of each batch's floor as on sharded-batch itself.
const probeBatchPasses = 6

// probeDynamic times the two halves of a dynamic insert: the public Insert
// and the snapshot publish the next query pays, on an engine preloaded as
// dynamic-mixed preloads it, then the triangulation's insert alone.
func (p *prober) probeDynamic(m map[string]float64) error {
	in := p.in
	eng, _, err := preloadDynamic(in)
	if err != nil {
		return err
	}
	// The probe draws from its own stream so it cannot shift the points
	// dynamic-mixed inserts.
	pts := uniformPoints(newRand(in.seed+5), 2*probeInserts, in.bounds)
	var insertNs, publishNs []float64
	for _, pt := range pts[:probeInserts] {
		t0 := time.Now()
		_, _, err := eng.Insert(pt)
		t1 := time.Now()
		eng.Snapshot()
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("dynamic probe insert: %w", err)
		}
		insertNs = append(insertNs, float64(t1.Sub(t0).Nanoseconds()))
		publishNs = append(publishNs, float64(t2.Sub(t1).Nanoseconds()))
	}
	m["insert_p50_us"] = median(insertNs) / 1e3
	m["core.publish_us"] = median(publishNs) / 1e3

	dt := delaunay.NewDynamic(in.bounds)
	for i, pt := range in.arrival[:in.sc.preload] {
		if _, _, err := dt.InsertSite(pt); err != nil {
			return fmt.Errorf("delaunay preload %d: %w", i, err)
		}
	}
	site := p.timeEach("", 1, probeInserts, func(i int) {
		if _, _, e := dt.InsertSite(pts[probeInserts+i]); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("delaunay insert probe: %w", err)
	}
	m["delaunay.insert_ns"] = median(site)
	return nil
}

const probeInserts = 256

// probeRemote takes the serving path apart on the area pool: the wire
// codec and the serve handler alone on each (region, backend) pair, which
// is what the unpruned fan-out contacts, then untraced passes through the
// RemoteEngine against the same passes on the local engine, then traced
// passes whose round-trip spans give the network share.
func (p *prober) probeRemote(m map[string]float64) error {
	in, ctx := p.in, p.ctx
	rig, err := newRemoteRig(in)
	if err != nil {
		return err
	}
	defer rig.close()

	// What the remote engine sends each backend: with two backends the
	// default method runs as its strict variant.
	opts := wire.Options{Method: wire.MethodString(core.VoronoiBFSStrict)}
	strict := vaq.UsingMethod(vaq.VoronoiBFSStrict)
	pairs := len(in.area) * len(rig.backends)
	var reqBytes, respBytes float64
	// The stages of one request, each keeping its floor per pair.
	stages := map[string][]float64{}
	for _, name := range []string{"encReq", "decReq", "engine", "encResp", "decResp", "handler"} {
		stages[name] = make([]float64, pairs)
	}
	for rep := 0; rep < probeReps; rep++ {
		k := 0
		for ri := range in.area {
			region := in.area[ri].region
			for _, b := range rig.backends {
				t0 := time.Now()
				wr, err := wire.EncodeRegion(region)
				if err != nil {
					return err
				}
				body, err := json.Marshal(wire.QueryRequest{Region: wr, Options: opts})
				if err != nil {
					return err
				}
				t1 := time.Now()
				var req wire.QueryRequest
				if err := json.Unmarshal(body, &req); err != nil {
					return err
				}
				decoded, err := req.Region.Decode()
				if err != nil {
					return err
				}
				t2 := time.Now()
				// Once unmeasured, so the engine and the handler after
				// it both run on a warm cache.
				var st vaq.Stats
				if _, err := b.eng.Query(ctx, decoded, strict); err != nil {
					return err
				}
				t3 := time.Now()
				ids, err := b.eng.Query(ctx, decoded, strict, vaq.WithStatsInto(&st))
				if err != nil {
					return err
				}
				t4 := time.Now()
				ws := wire.FromStats(st)
				out, err := json.Marshal(wire.QueryResponse{IDs: ids, Count: st.ResultSize, Stats: &ws})
				if err != nil {
					return err
				}
				t5 := time.Now()
				var resp wire.QueryResponse
				if err := json.Unmarshal(out, &resp); err != nil {
					return err
				}
				t6 := time.Now()
				rr := httptest.NewRecorder()
				hreq := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
				t7 := time.Now()
				b.handler.ServeHTTP(rr, hreq)
				t8 := time.Now()
				if rr.Code != http.StatusOK {
					return fmt.Errorf("serve probe: region %d: status %d: %s", ri, rr.Code, rr.Body.String())
				}
				keepFloor(stages["encReq"], k, rep, t1.Sub(t0))
				keepFloor(stages["decReq"], k, rep, t2.Sub(t1))
				keepFloor(stages["engine"], k, rep, t4.Sub(t3))
				keepFloor(stages["encResp"], k, rep, t5.Sub(t4))
				keepFloor(stages["decResp"], k, rep, t6.Sub(t5))
				keepFloor(stages["handler"], k, rep, t8.Sub(t7))
				if rep == 0 {
					reqBytes += float64(len(body))
					respBytes += float64(len(out))
				}
				k++
			}
		}
	}
	us := func(stage string) float64 { return median(stages[stage]) / 1e3 }
	m["wire.encode_req_us"] = us("encReq")
	m["wire.decode_req_us"] = us("decReq")
	m["wire.encode_resp_us"] = us("encResp")
	m["wire.decode_resp_us"] = us("decResp")
	m["wire.req_bytes"] = reqBytes / float64(pairs)
	m["wire.resp_bytes"] = respBytes / float64(pairs)
	m["serve.handler_us"] = us("handler")
	m["serve.self_us"] = us("handler") - us("engine") - us("decReq") - us("encResp")

	// Through the sockets, on instances of their own so that this probe's
	// spans stay out of the workload's trace file. The expected counts
	// are not known here; failures are not this probe's business.
	want := make([]expected, len(in.area))
	qi := &queryInstance{queryLoop: queryLoop{q: rig.eng, tap: rig.tap}, pool: in.area, want: want, rig: rig}
	local := &queryInstance{queryLoop: queryLoop{q: p.generic.vaqEng}, pool: in.area, want: want}
	var rd roundData
	qps := func(inst *queryInstance) float64 {
		inst.round(ctx, 1, nil, &rd) // warm: connections, caches
		inst.round(ctx, probeReps, nil, &rd)
		return reduce(&rd, probeReps, 0, probeReps, 1e3).qps
	}
	m["remote.local_ratio"] = qps(qi) / qps(local)

	// Per region, the floors of the whole query, of its slowest round
	// trip (the one the reply waits for) and of what is left over.
	rec := newRecorder()
	qi.round(ctx, probeReps, rec, &rd)
	spans := rec.snapshot()
	slowest := map[int]float64{} // by root span id
	trips := 0
	for _, s := range spans {
		if s.Name == "remote.roundtrip" {
			trips++
			slowest[s.Parent] = max(slowest[s.Parent], float64(s.End-s.Start))
		}
	}
	rtt, self := make([]float64, len(in.area)), make([]float64, len(in.area))
	seen := make([]int, len(in.area))
	for _, s := range spans {
		if s.Name != "vaq.Query" {
			continue
		}
		total := time.Duration(s.End - s.Start)
		blocked := time.Duration(slowest[s.ID])
		keepFloor(rtt, s.Region, seen[s.Region], blocked)
		keepFloor(self, s.Region, seen[s.Region], total-blocked)
		seen[s.Region]++
	}
	m["remote.rtt_us"] = median(rtt) / 1e3
	m["remote.fanout_per_query"] = float64(trips) / float64(probeReps*len(in.area))
	m["remote.self_us"] = median(self) / 1e3
	m["remote.http_us"] = m["remote.rtt_us"] - m["serve.handler_us"]
	m["remote.retries"] = float64(rig.tap.failures.Load())
	m["remote.dropped"] = float64(rig.eng.Dropped())
	return nil
}
