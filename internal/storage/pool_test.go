package storage

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testPages returns a load function over synthetic pages of pageSize bytes
// plus a counter of performed loads.
func testPages(pageSize int) (load func(uint32) (int, error), loads *atomic.Int64) {
	loads = &atomic.Int64{}
	return func(uint32) (int, error) {
		loads.Add(1)
		return pageSize, nil
	}, loads
}

// mustFetch is fetch for a page whose load cannot fail.
func mustFetch(t *testing.T, bp *bufferPool, p uint32) {
	t.Helper()
	if err := bp.fetch(p); err != nil {
		t.Errorf("fetch(%d): %v", p, err)
	}
}

// TestPoolShardNormalization pins how the shard count is resolved against
// the capacity: powers of two, GOMAXPROCS default, capacity clamp, and
// the single-shard degenerate cases.
func TestPoolShardNormalization(t *testing.T) {
	cases := []struct {
		capacity, shards, want int
	}{
		{capacity: 0, shards: 16, want: 1},   // caching disabled
		{capacity: 8, shards: 1, want: 1},    // explicit single lock
		{capacity: 8, shards: 3, want: 4},    // round up to power of two
		{capacity: 8, shards: 8, want: 8},    // exact
		{capacity: 2, shards: 16, want: 2},   // clamped to capacity
		{capacity: 3, shards: 16, want: 2},   // clamp keeps power of two
		{capacity: -1, shards: 16, want: 16}, // unbounded: no clamp
		{capacity: 1, shards: 64, want: 1},   // one page, one shard
	}
	for _, c := range cases {
		if got := normalizePoolShards(c.capacity, c.shards); got != c.want {
			t.Errorf("normalizePoolShards(cap=%d, shards=%d) = %d, want %d",
				c.capacity, c.shards, got, c.want)
		}
	}
	// Default: a power of two, at least 1, never above the cap.
	n := normalizePoolShards(-1, 0)
	if n < 1 || n > maxPoolShards || n&(n-1) != 0 {
		t.Errorf("default shard count %d not a clamped power of two", n)
	}
	if want := runtime.GOMAXPROCS(0); n < want && n < maxPoolShards {
		// Rounded up, so it can only be below GOMAXPROCS via the cap.
		t.Errorf("default shard count %d below GOMAXPROCS %d", n, want)
	}
}

// TestShardedPoolCountingExact replays a deterministic access pattern on
// a multi-shard pool and pins the merged counters exactly — the sharded
// pool must be semantically identical to the old single-lock pool for
// sequential use.
func TestShardedPoolCountingExact(t *testing.T) {
	const pageSize = 64
	load, loads := testPages(pageSize)
	bp := newBufferPool(8, 4, 32, load) // 4 shards × 2 frames
	if got := len(bp.shards); got != 4 {
		t.Fatalf("%d shards, want 4", got)
	}

	// Touch 8 distinct pages: all misses.
	for p := uint32(0); p < 8; p++ {
		mustFetch(t, bp, p)
	}
	// Touch them again: pages 0..7 spread 2 per shard (id&3), exactly the
	// per-shard capacity, so every re-read hits.
	for p := uint32(0); p < 8; p++ {
		mustFetch(t, bp, p)
	}
	st := bp.snapshot()
	want := BufferPoolStats{PageReads: 8, CacheHits: 8, BytesRead: 8 * pageSize}
	if st != want {
		t.Fatalf("after warm replay: %+v, want %+v", st, want)
	}
	if loads.Load() != 8 {
		t.Fatalf("loads = %d, want 8", loads.Load())
	}

	// Page 8 lands in shard 0 (8&3 == 0) which is full: one eviction.
	mustFetch(t, bp, 8)
	st = bp.snapshot()
	if st.PageReads != 9 || st.Evictions != 1 {
		t.Fatalf("after overflow: %+v", st)
	}

	// resetStats keeps frames: re-reading page 8 is a pure hit.
	bp.resetStats()
	mustFetch(t, bp, 8)
	if st = bp.snapshot(); st != (BufferPoolStats{CacheHits: 1}) {
		t.Fatalf("after resetStats: %+v", st)
	}

	// reset drops frames: the same page misses again.
	bp.reset()
	mustFetch(t, bp, 8)
	if st = bp.snapshot(); st.PageReads != 1 || st.CacheHits != 0 {
		t.Fatalf("after reset: %+v", st)
	}
}

// TestStoreGetRecordIsolation is the aliasing regression test at the
// Store boundary: mutating every mutable field of a record decoded out of
// a page must leave subsequent Gets of the same record — read off the same
// heap page — unaffected.
func TestStoreGetRecordIsolation(t *testing.T) {
	b := NewBuilder(Options{PageSize: 256, PoolPages: 4})
	for i := int64(0); i < 30; i++ {
		if err := b.Append(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rec.Payload {
		rec.Payload[i] = 0xEE
	}
	again, err := st.Get(7) // same page, resident
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecord(7)
	if !bytes.Equal(again.Payload, want.Payload) {
		t.Fatalf("cached record corrupted: Payload = %v", again.Payload)
	}
}

// TestGetPositionMatchesGet checks the position-only read against the full
// one on every record: same coordinates, same errors, same IO accounting
// (it goes through the same directory and buffer pool).
func TestGetPositionMatchesGet(t *testing.T) {
	build := func() *Store {
		b := NewBuilder(Options{PageSize: 256, PoolPages: 2})
		for i := int64(0); i < 40; i++ {
			if err := b.Append(sampleRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		st, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	full, posOnly := build(), build()
	for _, id := range []int64{0, 39, 7, 7, 20, 3, 38, 0, 12} {
		rec, err := full.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		pos, err := posOnly.GetPosition(id, nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if pos != rec.Pos {
			t.Fatalf("id %d: GetPosition %v, Get %v", id, pos, rec.Pos)
		}
	}
	if got, want := posOnly.Stats(), full.Stats(); got != want {
		t.Fatalf("GetPosition IO %+v, Get IO %+v", got, want)
	}
	if _, err := posOnly.GetPosition(40, nil, 0, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetPosition(missing id): err %v, want ErrNotFound", err)
	}
}

// TestGetPositionPinsEachPageOnce reads records through one pin record
// and checks what the pool is asked and what it counts. A pool that holds
// every page is asked for each page once per generation, however often the
// pass comes back to it, and again after DropCache; a new generation asks
// again. Over a pool of two pages, a read whose page is not resident always
// asks the pool and counts a page read, and a pass that reads each page's
// records together asks once per page; with caching disabled every read is
// a page read. Every position matches the stored one.
func TestGetPositionPinsEachPageOnce(t *testing.T) {
	build := func(poolPages int) *Store {
		b := NewBuilder(Options{PageSize: 256, PoolPages: poolPages})
		for i := int64(0); i < 40; i++ {
			if err := b.Append(sampleRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		st, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	accesses := func(st *Store) int { s := st.Stats(); return s.PageReads + s.CacheHits }
	var sequential, strided []int64
	for round := 0; round < 3; round++ {
		for i := int64(0); i < 40; i++ {
			sequential = append(sequential, i)
			strided = append(strided, (i*7+int64(round))%40) // strides across pages
		}
	}
	read := func(st *Store, pins []uint64, gen uint32, order []int64, each func(id int64, wasResident bool, reads int)) {
		t.Helper()
		for _, id := range order {
			p := st.dir[id].Page
			wasResident, before := resident(st, p), st.Stats().PageReads
			pos, err := st.GetPosition(id, pins, gen, nil)
			if err != nil || pos != sampleRecord(id).Pos {
				t.Fatalf("gen %d, id %d: %v, %v; stored %v", gen, id, pos, err, sampleRecord(id).Pos)
			}
			if each != nil {
				each(id, wasResident, st.Stats().PageReads-before)
			}
		}
	}

	st := build(-1)
	pins := make([]uint64, st.NumPages())
	for _, c := range []struct {
		gen  uint32
		drop bool
		want int
	}{{1, false, st.NumPages()}, {1, false, 0}, {1, true, st.NumPages()}, {2, false, st.NumPages()}} {
		if c.drop {
			st.DropCache()
		}
		before := accesses(st)
		read(st, pins, c.gen, strided, nil)
		if got := accesses(st) - before; got != c.want {
			t.Errorf("unbounded pool, gen %d, dropped %v: %d pool accesses for %d reads over %d pages, want %d", c.gen, c.drop, got, len(strided), st.NumPages(), c.want)
		}
	}

	st = build(2)
	pins = make([]uint64, st.NumPages())
	before := accesses(st)
	read(st, pins, 1, sequential, nil)
	if got := accesses(st) - before; got != 3*st.NumPages() {
		t.Errorf("two-page pool, each page's records together: %d pool accesses over %d pages in 3 passes, want %d", got, st.NumPages(), 3*st.NumPages())
	}
	read(st, pins, 2, strided, func(id int64, wasResident bool, reads int) {
		if !wasResident && reads != 1 {
			t.Errorf("two-page pool, id %d on a page not resident: %d page reads, want 1", id, reads)
		}
	})

	st = build(0)
	pins = make([]uint64, st.NumPages())
	read(st, pins, 1, sequential, func(id int64, _ bool, reads int) {
		if reads != 1 {
			t.Errorf("caching disabled, id %d: %d page reads, want 1", id, reads)
		}
	})
}

// resident reports whether page p is in st's pool.
func resident(st *Store, p uint32) bool {
	bp := st.pool
	s := &bp.shards[p&bp.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index[p>>bp.shift] != 0
}

// TestGetPositionAllocs pins the position-only read at zero allocations
// when the page is resident or pinned, timed or not: nothing is copied out
// of it.
func TestGetPositionAllocs(t *testing.T) {
	b := NewBuilder(Options{PageSize: 4096, PoolPages: -1})
	for i := int64(0); i < 200; i++ {
		if err := b.Append(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pins := make([]uint64, st.NumPages())
	var spent time.Duration
	read := func() {
		for id := int64(0); id < 200; id++ {
			if _, err := st.GetPosition(id, nil, 0, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := st.GetPosition(id, pins, 1, &spent); err != nil {
				t.Fatal(err)
			}
		}
	}
	read() // make every page resident, and pinned
	if allocs := testing.AllocsPerRun(20, read); allocs != 0 {
		t.Fatalf("GetPosition allocates %.1f times per 200 resident reads, want 0", allocs)
	}
}

// TestConcurrentMissOnOnePage pins what loading under the shard lock buys:
// two goroutines that miss on the same page serialize on its shard, so the
// page is read once and the other fetch is a hit — in every interleaving.
// The second goroutine starts while the first is provably inside load.
func TestConcurrentMissOnOnePage(t *testing.T) {
	load, loads := testPages(32)

	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	bp := newBufferPool(8, 2, 4, func(p uint32) (int, error) {
		once.Do(func() { close(entered) })
		<-release
		return load(p)
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); mustFetch(t, bp, 1) }()
	<-entered
	wg.Add(1)
	go func() { defer wg.Done(); mustFetch(t, bp, 1) }()
	runtime.Gosched() // let the second fetch reach the held lock
	close(release)
	wg.Wait()

	if loads.Load() != 1 {
		t.Fatalf("loads = %d, want 1", loads.Load())
	}
	wantStats := BufferPoolStats{PageReads: 1, CacheHits: 1, BytesRead: 32}
	if st := bp.snapshot(); st != wantStats {
		t.Fatalf("stats = %+v, want %+v", st, wantStats)
	}
}

// TestConcurrentResetSoak races fetches against reset/resetStats/snapshot
// from many goroutines (run under -race) and checks the counters still
// satisfy the pool's invariants afterwards.
func TestConcurrentResetSoak(t *testing.T) {
	const (
		pages    = 64
		pageSize = 128
		workers  = 8
		reps     = 400
	)
	load, _ := testPages(pageSize)
	bp := newBufferPool(16, 0, pages, load)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				switch {
				case w == 0 && i%64 == 63:
					bp.reset()
				case w == 1 && i%64 == 63:
					bp.resetStats()
				case i%17 == 0:
					_ = bp.snapshot()
				default:
					mustFetch(t, bp, uint32((w*31+i*7)%pages))
				}
			}
		}(w)
	}
	wg.Wait()

	st := bp.snapshot()
	if st.PageReads < 0 || st.CacheHits < 0 || st.Evictions < 0 {
		t.Fatalf("negative counters: %+v", st)
	}
	if st.BytesRead != int64(st.PageReads)*pageSize {
		t.Fatalf("BytesRead %d != PageReads %d × %d (double- or mis-counted load)",
			st.BytesRead, st.PageReads, pageSize)
	}

	// Quiescent epilogue: exact counting must hold again after the storm.
	bp.reset()
	mustFetch(t, bp, 0)
	mustFetch(t, bp, 0)
	if st = bp.snapshot(); st.PageReads != 1 || st.CacheHits != 1 {
		t.Fatalf("exact accounting lost after soak: %+v", st)
	}
}

// BenchmarkStoreParallelFetch measures store-backed fetch throughput
// under goroutine parallelism (run with -cpu 1,4,8) at 1 lock shard
// versus the default shard count. The workload is miss-heavy (the pool
// holds ~15% of the pages), so every fetch mutates its shard's LRU
// bookkeeping: with one shard all goroutines serialize on that mutex,
// with the default count they spread across the lock shards. The spread
// between the sub-benchmarks at -cpu > 1 is what the lock shards buy.
func BenchmarkStoreParallelFetch(b *testing.B) {
	const records = 20_000
	for _, shards := range []int{1, 0} {
		name := "shards=default"
		if shards == 1 {
			name = "shards=1"
		}
		bl := NewBuilder(Options{PageSize: 512, PoolPages: 64, PoolShards: shards})
		for i := int64(0); i < records; i++ {
			if err := bl.Append(sampleRecord(i)); err != nil {
				b.Fatal(err)
			}
		}
		st, err := bl.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportMetric(float64(len(st.pool.shards)), "shards")
			var worker atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				// Per-goroutine id sequence: no shared state on the hot
				// loop, distinct goroutines walk interleaved strides.
				id := worker.Add(1) * 7919
				for pb.Next() {
					id += 131
					if _, err := st.Get(id % records); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// TestPanickingLoadDoesNotStrandPage pins fetch's panic safety: a load that
// panics propagates to its caller but the deferred unlock leaves the shard
// usable — a later fetch of the same page (which would deadlock on a
// stranded lock) loads and counts normally, and nothing of the failed
// attempt was counted or installed.
func TestPanickingLoadDoesNotStrandPage(t *testing.T) {
	load, _ := testPages(32)
	failing := true
	bp := newBufferPool(8, 2, 4, func(p uint32) (int, error) {
		if failing {
			panic("simulated IO failure")
		}
		return load(p)
	})

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("load panic did not propagate to the fetching goroutine")
			}
		}()
		_ = bp.fetch(1) // panics: nothing is returned
	}()

	failing = false
	mustFetch(t, bp, 1)
	if st, want := bp.snapshot(), (BufferPoolStats{PageReads: 1, BytesRead: 32}); st != want {
		t.Errorf("post-panic stats: %+v, want %+v", st, want)
	}
}

// TestPoolSteadyStateMissAllocs pins the sentence in miss's comment: on a
// full shard a miss takes over the evicted frame, so a read-and-evict cycle
// allocates nothing — no frame, no list element, no index growth.
func TestPoolSteadyStateMissAllocs(t *testing.T) {
	const pages = 16
	load, _ := testPages(64)
	bp := newBufferPool(4, 1, pages, load)
	next := uint32(0)
	cycle := func() {
		for i := 0; i < pages; i++ {
			mustFetch(t, bp, next%pages)
			next++
		}
	}
	cycle() // fill the shard: from here on every fetch misses and evicts
	before := bp.snapshot()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("%.1f allocations per %d miss-and-evict cycles, want 0", allocs, pages)
	}
	after := bp.snapshot()
	if reads := after.PageReads - before.PageReads; after.CacheHits != 0 || reads != after.Evictions-before.Evictions || reads < 20*pages {
		t.Errorf("the cycle did not miss and evict every time: %+v, then %+v", before, after)
	}
}
