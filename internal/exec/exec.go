// Package exec runs batches of area queries on a bounded worker pool.
//
// The paper's per-query algorithms parallelize trivially once the engine's
// per-query scratch state is isolated (see core.Engine): every query reads
// the shared immutable index, Voronoi topology and point data, and writes
// only its own result slot. The executor therefore needs no locking on the
// hot path — workers claim chunks of the query slice from a shared atomic
// cursor (chunked work-stealing: large enough claims to amortize the
// cursor contention, small enough that an unlucky worker stuck on an
// expensive query strands at most one chunk), accumulate statistics into a
// per-worker Stats, and the per-worker stats merge into one aggregate
// after the pool drains.
//
// Every entry point takes a context.Context: cancellation is checked
// between chunk claims (so un-dispatched work is abandoned immediately)
// and inside each query (core checks on candidate boundaries), and
// surfaces as ctx.Err() together with the statistics of the work already
// performed.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// DefaultChunk is the number of consecutive queries a worker claims per
// steal when Options.Chunk is unset. Area queries are microseconds to
// milliseconds each, so single-query claims would rattle the shared cursor
// while very large claims would serialize the tail of the batch.
const DefaultChunk = 8

// Options configures a batch run.
type Options struct {
	// NumWorkers is the goroutine count; <= 0 means runtime.GOMAXPROCS(0).
	// The pool never spawns more workers than there are queries, and 1
	// runs the whole batch on the calling goroutine.
	NumWorkers int
	// Chunk is the number of queries claimed per steal; <= 0 means
	// DefaultChunk.
	Chunk int
	// Metrics, when non-nil, instruments the pool (see Metrics). Nil
	// costs a few predictable branches per task and no clock read.
	Metrics *Metrics
}

// Metrics instruments the worker pool. Any field may be nil (obs
// metrics are nil-safe); a nil *Metrics disables instrumentation
// entirely.
type Metrics struct {
	// Tasks counts tasks executed (queries for QueryBatch).
	Tasks *obs.Counter
	// Chunks counts chunk claims from the shared cursor.
	Chunks *obs.Counter
	// ChunkWait is the time from a worker finishing one chunk to
	// claiming the next, in ns — cursor contention shows up here.
	ChunkWait *obs.Histogram
	// WorkerBusy is the total time each worker spent inside tasks over
	// one batch, in ns; the spread across observations is the utilization
	// skew (stragglers observe much larger values than idle workers).
	WorkerBusy *obs.Histogram
	// ActiveWorkers is the number of pool goroutines currently alive.
	ActiveWorkers *obs.Gauge
}

// Workers returns the worker count Run and QueryBatch will use for n
// tasks, for callers sizing per-worker accumulators.
func (o Options) Workers(n int) int {
	w := o.NumWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// QueryBatch answers every region per spec against the shared engine,
// returning per-query results aligned with regions and aggregate
// statistics. The aggregate is the sum over per-query stats, so it equals
// a sequential run of the same batch counter for counter. On error the
// batch stops early and returns the lowest-indexed error among those
// observed before the pool drained (so a parallel run may name a later
// failing query than a sequential one), with the aggregate statistics of
// the queries that did complete. Cancelling ctx aborts un-claimed queries and surfaces as
// ctx.Err(), wrapped when a running query reported it. spec.Dest is
// ignored: one reuse buffer cannot back a batch of independent result
// slices.
//
// Any NumWorkers is safe: a core.Engine answers concurrent queries, its
// data layer's store included.
func QueryBatch(ctx context.Context, eng *core.Engine, regions []core.Region, spec core.QuerySpec, opts Options) ([][]int64, core.Stats, error) {
	n := len(regions)
	var agg core.Stats
	if n == 0 {
		return nil, agg, nil
	}
	spec.Dest = nil
	out := make([][]int64, n)
	workerStats := make([]core.Stats, opts.Workers(n))
	idx, err := run(ctx, n, opts, func(worker, i int) error {
		ids, st, err := eng.QueryRegionSpec(ctx, regions[i], spec)
		workerStats[worker].Add(st)
		out[i] = ids
		return err
	})
	for _, ws := range workerStats {
		agg.Add(ws)
	}
	if idx >= 0 {
		return nil, agg, fmt.Errorf("exec: batch query %d: %w", idx, err)
	}
	if err != nil {
		return nil, agg, err
	}
	return out, agg, nil
}

// Run executes fn(worker, i) for every i in [0, n) on a pool sized by
// opts. It is the pool primitive beneath QueryBatch, exported for callers
// with non-query task shapes — the sharded engine submits shard
// construction and per-(query, shard) scatter tasks through it. worker
// identifies the executing goroutine in [0, Workers(n)), so fn can
// accumulate into per-worker state without locking; with one worker
// everything runs on the calling goroutine. On error the pool stops
// claiming new tasks and the lowest-indexed observed error wins, wrapped
// with its task index. Cancelling ctx stops chunk claiming; when no task
// error occurred first, Run returns ctx.Err() unwrapped. The pool always
// drains before Run returns — no goroutine outlives the call.
func Run(ctx context.Context, n int, opts Options, fn func(worker, i int) error) error {
	idx, err := run(ctx, n, opts, fn)
	if idx >= 0 {
		return fmt.Errorf("exec: task %d: %w", idx, err)
	}
	return err
}

// run is the pool: fn(worker, i) for every i in [0, n), on opts.Workers(n)
// goroutines — or, when that is one, on the calling goroutine, through the
// same loop. Each worker claims chunks of indexes from a shared cursor,
// re-checking ctx before every claim so cancellation abandons all
// un-dispatched work; on the first error all workers stop claiming and the
// lowest-indexed observed error wins. run returns that error, unwrapped,
// with its index; otherwise index -1 with ctx.Err(), which is nil when
// every task ran. It always waits for every spawned worker to exit.
func run(ctx context.Context, n int, opts Options, fn func(worker, i int) error) (int, error) {
	if n <= 0 {
		return -1, nil
	}
	if err := ctx.Err(); err != nil {
		return -1, err
	}
	var (
		cursor atomic.Int64
		failed atomic.Bool

		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	workers, chunk, m := opts.Workers(n), opts.Chunk, opts.Metrics
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	work := func(worker int) { // nothing reads the clock without Metrics
		var busy time.Duration
		if m != nil {
			m.ActiveWorkers.Add(1)
			defer func() {
				m.ActiveWorkers.Add(-1)
				m.WorkerBusy.Observe(busy)
			}()
		}
		for !failed.Load() && ctx.Err() == nil {
			var t0 time.Time
			if m != nil {
				t0 = time.Now()
			}
			start := int(cursor.Add(int64(chunk))) - chunk
			if start >= n {
				return
			}
			if m != nil {
				m.Chunks.Inc()
				m.ChunkWait.Observe(time.Since(t0))
			}
			for i, end := start, min(start+chunk, n); i < end; i++ {
				if failed.Load() {
					return
				}
				if m != nil {
					t0 = time.Now()
				}
				err := fn(worker, i)
				if m != nil {
					busy += time.Since(t0)
					m.Tasks.Inc()
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil || i < firstIdx {
						firstErr, firstIdx = err, i
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}
	}
	if workers == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(w)
			}()
		}
		wg.Wait()
	}
	if firstErr != nil {
		return firstIdx, firstErr
	}
	return -1, ctx.Err()
}
