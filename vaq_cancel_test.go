package vaq

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// cancelFlavors builds the four backends over a shared dataset for the
// cancellation tests.
func cancelFlavors(t *testing.T, n int) []querierFlavor {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	return buildFlavors(t, UniformPoints(rng, n, UnitSquare()))
}

// TestAlreadyCancelledContext pins that a cancelled context returns
// ctx.Err() promptly — before any query work — on every backend and entry
// point.
func TestAlreadyCancelledContext(t *testing.T) {
	flavors := cancelFlavors(t, 2000)
	rng := rand.New(rand.NewSource(8))
	region := PolygonRegion(RandomQueryPolygon(rng, 8, 0.05, UnitSquare()))
	regions := []Region{region, region, region}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, f := range flavors {
		if _, err := f.q.Query(ctx, region); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Query err = %v, want context.Canceled", f.name, err)
		}
		if _, err := f.q.QueryAll(ctx, regions); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: QueryAll err = %v, want context.Canceled", f.name, err)
		}
		yields := 0
		err := f.q.Each(ctx, region, func(int64, Point) bool { yields++; return true })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Each err = %v, want context.Canceled", f.name, err)
		}
		if yields != 0 {
			t.Errorf("%s: Each yielded %d results on a cancelled context", f.name, yields)
		}
	}
}

// blockingRegion wraps a Region so the first InteriorPoint call an engine
// makes (the Voronoi seed walk's, the first thing the algorithm does)
// signals entered and then blocks until unblock closes — a deterministic
// hook to cancel a batch while one of its queries is provably in flight. The
// call before it is admission's look at the region, on the caller's
// goroutine before anything is in flight, and passes.
type blockingRegion struct {
	Region
	entered chan struct{}
	unblock chan struct{}
	calls   atomic.Int32
	once    sync.Once
}

func (b *blockingRegion) InteriorPoint() Point {
	if b.calls.Add(1) == 1 {
		return b.Region.InteriorPoint()
	}
	b.once.Do(func() { close(b.entered) })
	<-b.unblock
	return b.Region.InteriorPoint()
}

// TestCancelMidBatch cancels a QueryAll while one of its queries is
// in flight and pins, on every backend, that the batch aborts its
// un-started work, returns ctx.Err(), reports partial stats, and leaks no
// goroutines.
func TestCancelMidBatch(t *testing.T) {
	flavors := cancelFlavors(t, 2000)
	rng := rand.New(rand.NewSource(9))

	before := runtime.NumGoroutine()
	for _, f := range flavors {
		gate := &blockingRegion{
			Region:  PolygonRegion(RandomQueryPolygon(rng, 8, 0.03, UnitSquare())),
			entered: make(chan struct{}),
			unblock: make(chan struct{}),
		}
		regions := make([]Region, 256)
		for i := range regions {
			regions[i] = PolygonRegion(RandomQueryPolygon(rng, 8, 0.01, UnitSquare()))
		}
		regions[1] = gate // early slot: blocks one worker while the rest proceed

		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-gate.entered
			cancel() // the gate query is provably in flight
			close(gate.unblock)
		}()
		var st Stats
		_, err := f.q.QueryAll(ctx, regions, WithStatsInto(&st))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: mid-batch cancel err = %v, want context.Canceled", f.name, err)
		}
		// Partial stats: some queries may have completed before the cancel
		// landed, none after the full batch (the gate guarantees at least
		// one query never finished before cancellation).
		if st.ResultSize < 0 {
			t.Errorf("%s: negative partial ResultSize %d", f.name, st.ResultSize)
		}
		cancel()
	}

	// The pool drains before QueryAll returns; give the runtime a moment
	// and require the goroutine count to settle back.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancelled batches: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelMidQuery cancels a single in-flight Query through the same
// gate and pins that every backend returns ctx.Err() from inside the
// algorithm's candidate loop.
func TestCancelMidQuery(t *testing.T) {
	flavors := cancelFlavors(t, 2000)
	rng := rand.New(rand.NewSource(10))
	for _, f := range flavors {
		gate := &blockingRegion{
			Region:  PolygonRegion(RandomQueryPolygon(rng, 8, 0.05, UnitSquare())),
			entered: make(chan struct{}),
			unblock: make(chan struct{}),
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-gate.entered
			cancel()
			close(gate.unblock)
		}()
		if _, err := f.q.Query(ctx, gate); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: mid-query cancel err = %v, want context.Canceled", f.name, err)
		}
		cancel()
	}
}

// TestEachStreamsBeforeCompletion verifies the streaming contract on a
// large region: a consumer that stops after the first yield observes it
// while the query has validated only a small prefix of the eventual
// result, proving Each yields during the BFS rather than after
// materializing the full set.
func TestEachStreamsBeforeCompletion(t *testing.T) {
	flavors := cancelFlavors(t, 20000)
	// A region covering most of the universe: thousands of results.
	region := PolygonRegion(MustPolygon([]Point{
		Pt(0.05, 0.05), Pt(0.95, 0.05), Pt(0.95, 0.95), Pt(0.05, 0.95),
	}))
	ctx := context.Background()

	for _, f := range flavors {
		total, err := Count(ctx, f.q, region)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if total < 1000 {
			t.Fatalf("%s: region too small for a streaming test (%d results)", f.name, total)
		}
		var st Stats
		yields := 0
		err = f.q.Each(ctx, region, func(int64, Point) bool {
			yields++
			return false // stop at the first streamed result
		}, WithStatsInto(&st))
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if yields != 1 {
			t.Fatalf("%s: %d yields after stopping at the first", f.name, yields)
		}
		// Streaming proof: stopping after one yield must have cost only a
		// prefix of the full query's validations.
		if st.Candidates >= total/2 {
			t.Errorf("%s: early-stopped Each validated %d candidates of %d results — not streaming",
				f.name, st.Candidates, total)
		}

		// A yield that declines its 25th call stops the stream there on
		// every backend.
		count := 0
		if err := f.q.Each(ctx, region, func(int64, Point) bool { count++; return count < 25 }); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if count != 25 {
			t.Errorf("%s: stopping at the 25th yield yielded %d", f.name, count)
		}
	}
}
