package storage

import (
	"container/list"
	"runtime"
	"sync"
)

// BufferPoolStats counts the IO behavior of a store since creation or the
// last ResetStats.
type BufferPoolStats struct {
	PageReads int   // pool misses: pages fetched from the backing file
	CacheHits int   // pool hits
	BytesRead int64 // bytes fetched from the backing file
	Evictions int   // frames evicted to make room
}

// HitRate returns CacheHits / (CacheHits + PageReads), or 0 before any
// fetch.
func (s BufferPoolStats) HitRate() float64 {
	if n := s.CacheHits + s.PageReads; n > 0 {
		return float64(s.CacheHits) / float64(n)
	}
	return 0
}

// add accumulates other into s (the per-shard merge of snapshot).
func (s *BufferPoolStats) add(other BufferPoolStats) {
	s.PageReads += other.PageReads
	s.CacheHits += other.CacheHits
	s.BytesRead += other.BytesRead
	s.Evictions += other.Evictions
}

// maxPoolShards caps the lock-shard count; past this the maps' fixed
// overhead outweighs any contention win.
const maxPoolShards = 128

// bufferPool is a fixed-capacity page cache partitioned into power-of-two
// lock shards keyed by page id. Each shard owns its own frame map, LRU
// list and counters behind a private mutex, so fetches of pages in
// different shards never contend. A miss loads the page while holding its
// shard's lock: the only loader in the tree is an index into the store's
// in-memory page slice, so there is no slow IO to move off the lock, and
// two goroutines missing on one page serialize into one read and one hit.
//
// A total capacity of 0 disables caching (every access is a miss),
// modeling a cold read path; a negative capacity is unbounded. A positive
// capacity is split evenly across shards, rounded up — the effective
// capacity is shards × ceil(capacity/shards), i.e. at most
// capacity + shards − 1 frames — and the shard count is clamped down so
// it never exceeds the capacity (a tiny pool keeps its eviction
// pressure).
type bufferPool struct {
	shards []poolShard
	mask   uint32
}

// poolShard is one lock shard: a private LRU cache over the pages whose
// id hashes to it, plus its counters. The padding spaces the shards
// (which live contiguously in one slice) a full cache-line pair apart, so
// one shard's lock and counter writes never false-share with its
// neighbors'.
type poolShard struct {
	mu       sync.Mutex
	capacity int                      // frames this shard may hold; <0 unbounded, 0 disabled
	frames   map[uint32]*list.Element // guarded by mu; each Value is a *frame
	lru      list.List                // guarded by mu; most recently used first
	stats    BufferPoolStats          // guarded by mu
	_        [24]byte                 // pad to 128 bytes
}

type frame struct {
	pageID uint32
	data   []byte // read-only while installed
}

// normalizePoolShards resolves a requested shard count against the pool
// capacity: <= 0 means GOMAXPROCS (under full parallelism goroutines then
// rarely share a lock shard), the result is rounded up to a power of two
// (masking replaces modulo), capped at maxPoolShards, and clamped down so
// a positive capacity is never exceeded by the shard count alone.
func normalizePoolShards(capacity, shards int) int {
	if capacity == 0 {
		return 1 // caching disabled; shards would only shard the counters
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > maxPoolShards {
		shards = maxPoolShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	for capacity > 0 && n > capacity {
		n >>= 1
	}
	return n
}

// newBufferPool returns a pool of the given total capacity split over
// the given number of lock shards (see normalizePoolShards for how the
// count is resolved; 1 is a single-lock pool).
func newBufferPool(capacity, shards int) *bufferPool {
	n := normalizePoolShards(capacity, shards)
	per := capacity // 0 and negative apply per shard unchanged
	if capacity > 0 {
		per = (capacity + n - 1) / n
	}
	bp := &bufferPool{shards: make([]poolShard, n), mask: uint32(n - 1)}
	for i := range bp.shards {
		s := &bp.shards[i]
		s.capacity = per
		s.frames = make(map[uint32]*list.Element)
	}
	return bp
}

// numShards returns the resolved lock-shard count.
func (bp *bufferPool) numShards() int { return len(bp.shards) }

// fetch returns the page via the cache, reading it with load on a miss.
// load runs under the shard lock and must not re-enter the pool; the
// deferred unlock keeps the shard usable when load panics (nothing has
// been counted or installed by then, so a later fetch of the page starts
// clean). On a full shard the evicted frame is reused for the incoming
// page, so a steady-state miss allocates nothing.
//
// The returned slice aliases the cached frame (and, through load, the
// backing heap file) and MUST be treated read-only: mutating it would
// corrupt the page for every later reader. Store.Get is the enforcement
// boundary — decodeRecord deep-copies every variable field, so nothing
// the public API returns shares memory with the pool (pinned by
// TestStoreGetRecordIsolation). Page bytes never change, which is also
// why returning them after dropping the shard lock is safe.
func (bp *bufferPool) fetch(pageID uint32, load func(uint32) []byte) []byte {
	// Low-bit masking: the builder numbers pages sequentially, so
	// consecutive pages round-robin across the shards.
	s := &bp.shards[pageID&bp.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.frames[pageID]; ok {
		s.stats.CacheHits++
		s.lru.MoveToFront(e)
		return e.Value.(*frame).data
	}
	data := load(pageID)
	s.stats.PageReads++
	s.stats.BytesRead += int64(len(data))
	if s.capacity == 0 {
		// Caching disabled: every access is its own simulated read.
		return data
	}
	if s.capacity < 0 || len(s.frames) < s.capacity {
		s.frames[pageID] = s.lru.PushFront(&frame{pageID: pageID, data: data})
		return data
	}
	e := s.lru.Back() // least recently used: its frame takes the new page
	f := e.Value.(*frame)
	delete(s.frames, f.pageID)
	s.stats.Evictions++
	f.pageID, f.data = pageID, data
	s.lru.MoveToFront(e)
	s.frames[pageID] = e
	return data
}

// reset clears the cache contents and statistics.
func (bp *bufferPool) reset() {
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		s.frames = make(map[uint32]*list.Element)
		s.lru.Init()
		s.stats = BufferPoolStats{}
		s.mu.Unlock()
	}
}

// resetStats clears counters but keeps cached pages.
func (bp *bufferPool) resetStats() {
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		s.stats = BufferPoolStats{}
		s.mu.Unlock()
	}
}

// snapshot returns a copy of the counters, merged over the shards. Each
// shard's contribution is internally consistent (read under its lock);
// with fetches in flight the merge is a near-point-in-time view, exact
// whenever the pool is quiescent.
func (bp *bufferPool) snapshot() BufferPoolStats {
	var out BufferPoolStats
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		out.add(s.stats)
		s.mu.Unlock()
	}
	return out
}
