package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	vaq "repro"
	"repro/internal/obs"
)

// The load model is the same everywhere: one client goroutine in a closed
// loop, so the only parallelism is what the system spawns itself, capped
// at the host's two cores.
const (
	systemWorkers = 2
	shardCount    = 8
	setupRepeats  = 3
	// spreadGroups is how many consecutive groups the timed passes are cut
	// into to show how much a statistic moves within one run.
	spreadGroups = 5
	// referenceSeconds is the --seconds value the pass counts below are
	// sized for.
	referenceSeconds = 10
)

// workload describes one of the six scenarios. passes is how many times the
// timed part of a run goes over the pool at referenceSeconds: a constant of
// the benchmark, not a time, so that counters repeat exactly and every
// position of a pass is sampled equally often.
type workload struct {
	name   string
	why    string
	pool   func(in *inputs) []shape
	passes int
	setup  func(in *inputs, pool []shape, want []expected) (instance, error)
}

// instance is one built system under test.
type instance interface {
	// verify answers every pool region once through the public API,
	// compares count and digest with the oracle, and returns the work the
	// pass performed.
	verify(ctx context.Context) (vaq.Stats, error)
	// round runs passes passes over the pool. With rec nil it reads the
	// clock only around each operation; otherwise it also records spans.
	round(ctx context.Context, passes int, rec *recorder, out *roundData)
	close()
}

// roundData is what one round measured. The latency slices are
// preallocated by reset so the measuring loop itself never allocates.
type roundData struct {
	regions   int // regions answered
	attempted int // operations, an insert or a batch counting once
	failed    int
	mallocs   uint64
	pageReads int
	queryNs   []int64 // per Query, or per QueryAll on sharded-batch
	insertNs  []int64
}

func (d *roundData) reset(queries, inserts int) {
	if cap(d.queryNs) < queries {
		d.queryNs = make([]int64, 0, queries)
	}
	if cap(d.insertNs) < inserts {
		d.insertNs = make([]int64, 0, inserts)
	}
	*d = roundData{queryNs: d.queryNs[:0], insertNs: d.insertNs[:0]}
}

var workloads = []workload{
	{
		name:   "mem-area",
		why:    "1 % polygons on the in-memory engine: BFS expansion and region tests do nearly all the work; bypasses store, network and shards",
		pool:   func(in *inputs) []shape { return in.area },
		passes: 60,
		setup:  setupStatic,
	},
	{
		name:   "mem-small",
		why:    "0.01 % polygons (about 10 results): fixed per-query cost dominates, so seed lookup, option resolution and scratch show here",
		pool:   func(in *inputs) []shape { return in.small },
		passes: 150,
		setup:  setupStatic,
	},
	{
		name:   "store-cold",
		why:    "mem-area's queries over a paged store 17 times larger than its 256-page pool: fetch, decode and eviction dominate",
		pool:   func(in *inputs) []shape { return in.area },
		passes: 20,
		setup: func(in *inputs, pool []shape, want []expected) (instance, error) {
			eng, err := vaq.NewEngine(in.data, in.bounds,
				vaq.WithStore(storeConfig), vaq.WithBufferPoolShards(poolShards))
			if err != nil {
				return nil, err
			}
			return &queryInstance{queryLoop: queryLoop{q: eng}, pool: pool, want: want, io: eng}, nil
		},
	},
	{
		name:   "sharded-batch",
		why:    "QueryAll of 32 polygons and circles over 8 shards on 2 workers: the only place scatter, merge, the exec pool and strict cell tests run",
		pool:   func(in *inputs) []shape { return in.mixed },
		passes: 75,
		setup: func(in *inputs, pool []shape, want []expected) (instance, error) {
			eng, err := vaq.NewShardedEngine(in.data, in.bounds,
				vaq.WithShards(shardCount), vaq.WithParallelism(systemWorkers))
			if err != nil {
				return nil, err
			}
			return &batchInstance{eng: eng, regions: regionsOf(pool), want: want, batch: in.sc.batch}, nil
		},
	},
	{
		name:   "remote-fanout",
		why:    "mem-area's queries through wire codec, HTTP and two loopback backends, each holding half of D: the engine is a third of the time",
		pool:   func(in *inputs) []shape { return in.area },
		passes: 16,
		setup: func(in *inputs, pool []shape, want []expected) (instance, error) {
			rig, err := newRemoteRig(in)
			if err != nil {
				return nil, err
			}
			return &queryInstance{queryLoop: queryLoop{q: rig.eng, tap: rig.tap}, pool: pool, want: want, rig: rig}, nil
		},
	},
	{
		name:   "dynamic-mixed",
		why:    "one insert then 64 queries, repeated: every insert makes the next query republish an O(n) snapshot",
		pool:   func(in *inputs) []shape { return in.area },
		passes: 60,
		setup: func(in *inputs, pool []shape, want []expected) (instance, error) {
			eng, idBase, err := preloadDynamic(in)
			if err != nil {
				return nil, err
			}
			return &dynamicInstance{
				queryLoop: queryLoop{q: eng},
				eng:       eng, idBase: idBase, in: in, pool: pool,
				want: append([]expected(nil), want...), reads: in.sc.cycleReads,
			}, nil
		},
	},
}

// setupStatic builds the plain in-memory engine of mem-area and mem-small.
func setupStatic(in *inputs, pool []shape, want []expected) (instance, error) {
	eng, err := vaq.NewEngine(in.data, in.bounds)
	if err != nil {
		return nil, err
	}
	return &queryInstance{queryLoop: queryLoop{q: eng}, pool: pool, want: want}, nil
}

var (
	storeConfig = vaq.StoreConfig{PageSize: 4096, PoolPages: 256, PayloadBytes: 64}
	// poolShards pins the buffer pool's lock-shard count, which otherwise
	// follows GOMAXPROCS and would make page reads depend on the host.
	poolShards = 4
)

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// oracleFor computes the expected results of w's pool. The dynamic engine
// holds the first preload arrival points, which the oracle numbers by
// arrival position.
func oracleFor(w *workload, in *inputs) []expected {
	if w.name == "dynamic-mixed" {
		return bruteForce(in.arrival[:in.sc.preload], w.pool(in))
	}
	return bruteForce(in.data, w.pool(in))
}

// preloadDynamic builds a dynamic engine over the first preload arrival
// points. Insert must number them consecutively; idBase is the id of the
// first, which verify subtracts to compare with the oracle.
func preloadDynamic(in *inputs) (*vaq.DynamicEngine, int64, error) {
	eng := vaq.NewDynamicEngine(in.bounds)
	var idBase int64
	for i, p := range in.arrival[:in.sc.preload] {
		id, inserted, err := eng.Insert(p)
		if err != nil {
			return nil, 0, fmt.Errorf("preload insert %d: %w", i, err)
		}
		if !inserted {
			return nil, 0, fmt.Errorf("preload insert %d: point %v is already present", i, p)
		}
		if i == 0 {
			idBase = id
		}
		if id != idBase+int64(i) {
			return nil, 0, fmt.Errorf("preload insert %d got id %d, want %d", i, id, idBase+int64(i))
		}
	}
	return eng, idBase, nil
}

// ioCounter is the part of a store-backed engine the harness reads.
type ioCounter interface {
	IOStats() (reads, hits int, ok bool)
}

// queryLoop is the operation queryInstance and dynamicInstance share:
// Query(ctx, r, Reuse(buf)) on one region, timed, and traced when a
// recorder is given.
type queryLoop struct {
	q   vaq.Querier
	tap *tap // remote-fanout only: tells the transport which operation is running
	buf []int64
	tr  vaq.QueryTrace
	st  vaq.Stats
}

// query answers pool region ri, appends the call's latency to out and
// returns the result count. op is the operation's id in a traced run.
func (l *queryLoop) query(ctx context.Context, rec *recorder, op, ri int, region vaq.Region, out *roundData) (int, error) {
	var (
		ids []int64
		err error
	)
	if rec == nil {
		t0 := time.Now()
		ids, err = l.q.Query(ctx, region, vaq.Reuse(l.buf))
		out.queryNs = append(out.queryNs, time.Since(t0).Nanoseconds())
	} else {
		root := rec.start(op, 0, "vaq.Query", ri)
		if l.tap != nil {
			l.tap.begin(op, root, ri)
		}
		t0 := time.Now()
		ids, err = l.q.Query(ctx, region, vaq.Reuse(l.buf), vaq.WithTraceInto(&l.tr), vaq.WithStatsInto(&l.st))
		out.queryNs = append(out.queryNs, time.Since(t0).Nanoseconds())
		rec.finish(root, workCounts(&l.st))
		addPhaseSpans(rec, op, root, ri, &l.tr)
	}
	if ids != nil {
		l.buf = ids[:0]
	}
	return len(ids), err
}

// verifyPool answers every pool region once and compares it with the
// oracle, whose ids are the engine's minus idBase.
func verifyPool(ctx context.Context, q vaq.Querier, pool []shape, want []expected, idBase int64) (vaq.Stats, error) {
	var total, st vaq.Stats
	for ri := range pool {
		ids, err := q.Query(ctx, pool[ri].region, vaq.WithStatsInto(&st))
		if err != nil {
			return total, fmt.Errorf("region %d: %w", ri, err)
		}
		for i := range ids {
			ids[i] -= idBase
		}
		if err := checkResult("Query", ri, ids, want[ri]); err != nil {
			return total, err
		}
		total.Add(st)
	}
	return total, nil
}

// queryInstance drives the query loop over a pool: mem-area, mem-small,
// store-cold and remote-fanout.
type queryInstance struct {
	queryLoop
	pool []shape
	want []expected
	io   ioCounter  // store-cold only
	rig  *remoteRig // remote-fanout only
}

func (qi *queryInstance) verify(ctx context.Context) (vaq.Stats, error) {
	return verifyPool(ctx, qi.q, qi.pool, qi.want, 0)
}

func (qi *queryInstance) round(ctx context.Context, passes int, rec *recorder, out *roundData) {
	out.reset(passes*len(qi.pool), 0)
	if rec != nil && qi.rig != nil {
		qi.rig.tap.rec.Store(rec)
		defer qi.rig.tap.rec.Store(nil)
	}
	reads0 := qi.reads()
	mallocs0 := mallocCount()
	for p := 0; p < passes; p++ {
		for ri := range qi.pool {
			out.attempted++
			n, err := qi.query(ctx, rec, out.attempted, ri, qi.pool[ri].region, out)
			if err != nil || n != qi.want[ri].count {
				out.failed++
			}
		}
	}
	out.mallocs = mallocCount() - mallocs0
	out.pageReads = qi.reads() - reads0
	out.regions = out.attempted
}

func (qi *queryInstance) reads() int {
	if qi.io == nil {
		return 0
	}
	reads, _, _ := qi.io.IOStats()
	return reads
}

func (qi *queryInstance) close() {
	if qi.rig != nil {
		qi.rig.close()
	}
}

// batchInstance drives QueryAll over consecutive slices of the mixed pool.
type batchInstance struct {
	eng     *vaq.ShardedEngine
	regions []vaq.Region
	want    []expected
	batch   int
}

func (bi *batchInstance) verify(ctx context.Context) (vaq.Stats, error) {
	var total, st vaq.Stats
	for lo := 0; lo < len(bi.regions); lo += bi.batch {
		res, err := bi.eng.QueryAll(ctx, bi.regions[lo:lo+bi.batch], vaq.WithStatsInto(&st))
		if err != nil {
			return total, fmt.Errorf("batch at %d: %w", lo, err)
		}
		for i, ids := range res {
			if err := checkResult("QueryAll", lo+i, ids, bi.want[lo+i]); err != nil {
				return total, err
			}
		}
		total.Add(st)
	}
	return total, nil
}

func (bi *batchInstance) round(ctx context.Context, passes int, rec *recorder, out *roundData) {
	out.reset(passes*len(bi.regions)/bi.batch, 0)
	mallocs0 := mallocCount()
	var (
		tr vaq.QueryTrace
		st vaq.Stats
	)
	for p := 0; p < passes; p++ {
		for lo := 0; lo < len(bi.regions); lo += bi.batch {
			regions := bi.regions[lo : lo+bi.batch]
			var (
				res [][]int64
				err error
			)
			if rec == nil {
				t0 := time.Now()
				res, err = bi.eng.QueryAll(ctx, regions)
				out.queryNs = append(out.queryNs, time.Since(t0).Nanoseconds())
			} else {
				root := rec.start(out.attempted+1, 0, "vaq.QueryAll", lo)
				t0 := time.Now()
				res, err = bi.eng.QueryAll(ctx, regions, vaq.WithTraceInto(&tr), vaq.WithStatsInto(&st))
				out.queryNs = append(out.queryNs, time.Since(t0).Nanoseconds())
				// A batch's phase times are summed over queries that ran
				// on two workers, so they can exceed the wall time of the
				// call: they ride on the root as counts, not as children.
				counts := workCounts(&st)
				for _, ph := range tracePhases {
					if d := tr.Phase(ph.phase); d > 0 {
						counts[ph.name+"_ns"] = d.Nanoseconds()
					}
				}
				rec.finish(root, counts)
			}
			out.attempted++
			bad := err != nil || len(res) != len(regions)
			for i := 0; !bad && i < len(res); i++ {
				bad = len(res[i]) != bi.want[lo+i].count
			}
			if bad {
				out.failed++
			}
			out.regions += len(regions)
		}
	}
	out.mallocs = mallocCount() - mallocs0
}

func (bi *batchInstance) close() {}

// dynamicInstance repeats one Insert followed by reads Queries; a pass is
// the pool-size/reads cycles that take the queries once over the pool, so
// operation k of every pass is the same insert slot or the same region. The
// engine keeps growing; the expected counts follow it, updated outside the
// timed spans.
type dynamicInstance struct {
	queryLoop
	eng    *vaq.DynamicEngine
	idBase int64
	in     *inputs
	pool   []shape
	want   []expected // counts kept current; digests only valid before the first insert
	reads  int
	next   int // pool index of the next query
}

func (di *dynamicInstance) verify(ctx context.Context) (vaq.Stats, error) {
	return verifyPool(ctx, di.eng, di.pool, di.want, di.idBase)
}

func (di *dynamicInstance) round(ctx context.Context, passes int, rec *recorder, out *roundData) {
	cycles := passes * len(di.pool) / di.reads // the pool size is a multiple of reads
	out.reset(cycles*di.reads, cycles)
	mallocs0 := mallocCount()
	for c := 0; c < cycles; c++ {
		p := di.in.nextInsert()
		out.attempted++
		root := 0
		if rec != nil {
			root = rec.start(out.attempted, 0, "vaq.Insert", -1)
		}
		t0 := time.Now()
		_, inserted, err := di.eng.Insert(p)
		out.insertNs = append(out.insertNs, time.Since(t0).Nanoseconds())
		if rec != nil {
			rec.finish(root, nil)
		}
		if err != nil || !inserted {
			out.failed++
		} else {
			for ri := range di.pool {
				if di.pool[ri].bounds().ContainsPoint(p) && di.pool[ri].contains(p) {
					di.want[ri].count++
				}
			}
		}
		for r := 0; r < di.reads; r++ {
			ri := di.next
			di.next = (di.next + 1) % len(di.pool)
			out.attempted++
			out.regions++
			n, err := di.query(ctx, rec, out.attempted, ri, di.pool[ri].region, out)
			if err != nil || n != di.want[ri].count {
				out.failed++
			}
		}
	}
	out.mallocs = mallocCount() - mallocs0
}

func (di *dynamicInstance) close() {}

// tracePhases maps the program's QueryTrace phases to span names, in the
// order a query passes through them.
var tracePhases = []struct {
	phase obs.Phase
	name  string
}{
	{obs.PhaseCacheLookup, "rcache.lookup"},
	{obs.PhaseSeed, "core.seed"},
	{obs.PhaseExpand, "core.expand"},
	{obs.PhasePageFetch, "storage.page_fetch"},
	{obs.PhaseMerge, "merge"},
}

// addPhaseSpans turns the phase durations of one traced query into child
// spans of root. A QueryTrace records how long each phase took, not when
// it ran, so the children are laid end to end from the root's start.
func addPhaseSpans(rec *recorder, op, root, region int, tr *vaq.QueryTrace) {
	at := rec.startOf(root)
	for _, ph := range tracePhases {
		d := tr.Phase(ph.phase).Nanoseconds()
		if d <= 0 {
			continue
		}
		rec.add(span{Op: op, Parent: root, Name: ph.name, Region: region, Start: at, End: at + d})
		at += d
	}
}

// workCounts is the work one traced call reported, for its root span.
func workCounts(st *vaq.Stats) map[string]int64 {
	counts := map[string]int64{
		"results":    int64(st.ResultSize),
		"candidates": int64(st.Candidates),
	}
	for name, v := range map[string]int{
		"segment_tests": st.SegmentTests, "cell_tests": st.CellTests,
		"index_nodes": st.IndexNodesVisited, "records_loaded": st.RecordsLoaded,
	} {
		if v != 0 {
			counts[name] = int64(v)
		}
	}
	return counts
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapAfterGC returns the live heap after a forced collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// passesFor scales a workload's run length with --seconds, in whole passes,
// so a shorter run stays a fixed operation count.
func passesFor(w *workload, seconds int) int {
	return max(1, (w.passes*seconds+referenceSeconds/2)/referenceSeconds)
}
