// Package exec runs batches of area queries on a bounded worker pool.
//
// The paper's per-query algorithms parallelize trivially once the engine's
// per-query scratch state is isolated (see core.Engine): every query reads
// the shared immutable index, Voronoi topology and point data, and writes
// only its own result slot. The executor therefore needs no locking on the
// hot path — workers claim one task at a time from a shared atomic cursor
// (a task is a query or a partition call, microseconds to milliseconds, so
// the claim is cheap beside it and no worker strands queued work behind a
// slow one), accumulate statistics into a per-worker Stats, and the
// per-worker stats merge into one aggregate after the pool drains.
//
// Every entry point takes a context.Context: cancellation is checked
// between claims (so un-dispatched work is abandoned immediately)
// and inside each query (core checks on candidate boundaries), and
// surfaces as ctx.Err() together with the statistics of the work already
// performed.
package exec

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Options configures a batch run.
type Options struct {
	// NumWorkers is the goroutine count; <= 0 means runtime.GOMAXPROCS(0).
	// The pool never spawns more workers than there are queries, and 1
	// runs the whole batch on the calling goroutine.
	NumWorkers int
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
	// ChunkWait is the time a worker takes to claim its next task from
	// the shared cursor, in ns — cursor contention shows up here.
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
	return min(w, n)
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
// data layer's store included. No engine flavor calls it — every one
// batches through the scatter-gather kernel (package shard), on Run; the
// benchmark's pool probe still does.
func QueryBatch(ctx context.Context, eng *core.Engine, regions []core.Region, spec core.QuerySpec, opts Options) ([][]int64, core.Stats, error) {
	n := len(regions)
	var agg core.Stats
	if n == 0 {
		return nil, agg, nil
	}
	spec.Dest = nil
	out := make([][]int64, n)
	workerStats := make([]core.Stats, opts.Workers(n))
	err := Run(ctx, n, opts, func(worker, i int) error {
		ids, st, err := eng.QueryRegionSpec(ctx, regions[i], spec)
		workerStats[worker].Add(st)
		out[i] = ids
		if err != nil {
			return fmt.Errorf("exec: batch query %d: %w", i, err)
		}
		return nil
	})
	for _, ws := range workerStats {
		agg.Add(ws)
	}
	if err != nil {
		return nil, agg, err
	}
	return out, agg, nil
}

// Run executes fn(worker, i) for every i in [0, n) on opts.Workers(n)
// goroutines — or, when that is one, on the calling goroutine, through the
// same loop. It is the pool beneath QueryBatch and the kernel (package
// shard), which submits shard construction and scatter tasks through it.
// worker identifies the executing goroutine in [0, Workers(n)), so fn can
// accumulate into per-worker state without locking. Each worker claims one
// index at a time from a shared cursor, re-checking ctx before every claim
// so cancellation abandons all un-dispatched work; on the first error all
// workers stop claiming and the lowest-indexed observed error wins,
// returned as fn returned it: fn names its task in the error when a caller
// needs that. Otherwise Run returns ctx.Err(), which is nil when every task
// ran. A sole task is simply called, outside the pool and its Metrics. The
// pool always drains before Run returns — no goroutine outlives the call —
// and a warm Run allocates nothing of its own.
func Run(ctx context.Context, n int, opts Options, fn func(worker, i int) error) error {
	switch err := ctx.Err(); {
	case n <= 0:
		return nil
	case err != nil:
		return err
	case n == 1:
		return cmp.Or(fn(0, 0), ctx.Err())
	}
	r := runs.Get().(*run)
	defer runs.Put(r)
	return r.do(ctx, n, opts, fn)
}

// run is one Run's shared state. It comes from runs, and keeps the bodies
// of the goroutines it has started, each bound once to its worker index,
// so a warm Run starts its workers without building a closure.
type run struct {
	ctx      context.Context
	n        int
	fn       func(worker, i int) error
	m        *Metrics
	cursor   atomic.Int64
	failed   atomic.Bool
	mu       sync.Mutex
	firstErr error
	firstIdx int
	wg       sync.WaitGroup
	workers  []func() // workers[w] runs work(w), then marks wg done
}

var runs = sync.Pool{New: func() any { return new(run) }}

// do is Run's pool over n >= 2 tasks. It leaves r as runs holds it: no
// reference to the call's context, function or error.
func (r *run) do(ctx context.Context, n int, opts Options, fn func(worker, i int) error) error {
	r.ctx, r.n, r.fn, r.m = ctx, n, fn, opts.Metrics
	if workers := opts.Workers(n); workers == 1 {
		r.work(0)
	} else {
		// The caller waits rather than working: a goroutine it starts sits
		// in its P's runnext slot, which another P steals only after a delay.
		for w := len(r.workers); w < workers; w++ {
			r.workers = append(r.workers, func() {
				defer r.wg.Done()
				r.work(w)
			})
		}
		r.wg.Add(workers)
		for _, body := range r.workers[:workers] {
			go body()
		}
		r.wg.Wait()
	}
	err := cmp.Or(r.firstErr, ctx.Err())
	r.ctx, r.fn, r.m, r.firstErr = nil, nil, nil, nil
	r.cursor.Store(0)
	r.failed.Store(false)
	return err
}

// work claims and runs tasks until none is left, one fails or ctx is done.
// Nothing reads the clock without Metrics.
func (r *run) work(worker int) {
	var busy time.Duration
	if m := r.m; m != nil {
		m.ActiveWorkers.Add(1)
		defer func() {
			m.ActiveWorkers.Add(-1)
			m.WorkerBusy.Observe(busy)
		}()
	}
	for !r.failed.Load() && r.ctx.Err() == nil {
		var t0 time.Time
		if r.m != nil {
			t0 = time.Now()
		}
		i := int(r.cursor.Add(1)) - 1
		if i >= r.n {
			return
		}
		if r.m != nil {
			t1 := time.Now()
			r.m.ChunkWait.Observe(t1.Sub(t0))
			t0 = t1
		}
		err := r.fn(worker, i)
		if r.m != nil {
			busy += time.Since(t0)
			r.m.Tasks.Inc()
		}
		if err != nil {
			r.mu.Lock()
			if r.firstErr == nil || i < r.firstIdx {
				r.firstErr, r.firstIdx = err, i
			}
			r.mu.Unlock()
			r.failed.Store(true)
			return
		}
	}
}
