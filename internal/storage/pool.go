package storage

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// BufferPoolStats counts the simulated IO of a store since creation or the
// last ResetStats: the pool's accesses, which are what a disk-backed pool
// would read or find cached, though every record is read out of the
// store's own pages.
type BufferPoolStats struct {
	PageReads int // pool misses: pages read and checksummed
	// CacheHits counts pool hits: each Get that finds its page resident,
	// but a query (GetPosition with a pin record) only where it asks the
	// pool: at its first read of a page, and again only if the page has
	// left the pool since.
	CacheHits int
	BytesRead int64 // bytes those page reads covered
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

// maxPoolShards caps the lock-shard count; past this the shards' fixed
// overhead outweighs any contention win.
const maxPoolShards = 128

// bufferPool is the simulated page cache of a fixed capacity, partitioned
// into power-of-two lock shards keyed by page id. It holds no page bytes:
// the store reads every record out of its own pages, and the pool keeps
// only which pages are resident, their LRU order, the count of each page's
// departures and the IO counters. Each shard owns its own frame index, LRU
// order and counters behind a private mutex, so fetches of pages in
// different shards never contend. A miss reads the page through load while
// holding its shard's lock: the only loader in the tree checksums the
// store's in-memory page and reports its size, so there is no slow IO to
// move off the lock, and two goroutines missing on one page serialize into
// one read and one hit.
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
	mask   uint32 // pageID & mask picks the shard
	shift  uint8  // pageID >> shift is the page's slot in its shard's index
	// load reads and verifies one page of the backing file and returns
	// its size in bytes. It runs under the shard lock and must not re-enter
	// the pool.
	load func(pageID uint32) (int, error)
	// departed counts, by page id, the times the page left the pool:
	// evicted, dropped by reset, or read with caching disabled and not
	// kept. It is written under the page's shard lock and read without
	// it, so a pin record can tell a page still resident since it was
	// fetched (the count it saw then) from one that is not.
	departed []atomic.Uint32
}

// poolShard is one lock shard: a private LRU cache over the pages whose
// id maps to it, plus its counters. Page ids are dense, so a resident page
// is found through an index, not a hash, and the LRU order is a circular
// list threaded through the frames by position: a hit touches the index
// entry and at most four frames. The padding spaces the shards (which live
// contiguously in one slice) a full cache-line pair apart, so one shard's
// lock and counter writes never false-share with its neighbors'.
type poolShard struct {
	mu       sync.Mutex
	capacity int             // frames this shard may hold; <0 unbounded, 0 disabled
	index    []int32         // guarded by mu; by pageID>>shift: the page's frame, 0 while not resident
	frames   []frame         // guarded by mu; frames[0] heads the LRU list and holds no page
	stats    BufferPoolStats // guarded by mu
	_        [32]byte        // pad to 128 bytes
}

// frame is one resident page's place in the shard's LRU order:
// frames[0].next is the most recently used frame, frames[0].prev the least.
type frame struct {
	prev, next int32
	page       uint32 // the page held; page>>shift is the index entry that points here
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

// newBufferPool returns a pool over page ids [0, pages) of the given total
// capacity split over the given number of lock shards (see
// normalizePoolShards for how the count is resolved; 1 is a single-lock
// pool). A missing page is read with load.
func newBufferPool(capacity, shards, pages int, load func(pageID uint32) (int, error)) *bufferPool {
	n := normalizePoolShards(capacity, shards)
	per := capacity // 0 and negative apply per shard unchanged
	if capacity > 0 {
		per = (capacity + n - 1) / n
	}
	bp := &bufferPool{
		shards:   make([]poolShard, n),
		mask:     uint32(n - 1),
		shift:    uint8(bits.TrailingZeros(uint(n))),
		load:     load,
		departed: make([]atomic.Uint32, pages),
	}
	slots := (pages + n - 1) / n
	for i := range bp.shards {
		s := &bp.shards[i]
		s.capacity = per
		s.index = make([]int32, slots)
		// A bounded shard reserves every frame it can come to hold, so
		// installing a page never grows the slice; an unbounded one grows.
		s.frames = make([]frame, 1, 1+max(0, min(per, slots)))
	}
	return bp
}

// fetch makes the page resident, reading it with the pool's loader on a
// miss, and counts the access; a nil error means the page passed its
// checksum and the caller may read it. A hit is lock, index, splice,
// unlock.
func (bp *bufferPool) fetch(pageID uint32) error {
	// Low-bit masking: the builder numbers pages sequentially, so
	// consecutive pages round-robin across the shards.
	s := &bp.shards[pageID&bp.mask]
	slot := pageID >> bp.shift
	s.mu.Lock()
	fi := s.index[slot]
	if fi == 0 {
		return s.miss(bp, pageID, slot)
	}
	s.stats.CacheHits++
	fr := s.frames
	if fr[0].next != fi {
		s.unlink(fi)
		s.pushFront(fi)
	}
	s.mu.Unlock()
	return nil
}

// unlink takes frame fi out of the LRU list.
//
//vaq:locked mu
func (s *poolShard) unlink(fi int32) {
	fr := s.frames
	f := &fr[fi]
	fr[f.prev].next, fr[f.next].prev = f.next, f.prev
}

// pushFront links frame fi, which is in no list, in as the most recently
// used.
//
//vaq:locked mu
func (s *poolShard) pushFront(fi int32) {
	fr := s.frames
	first := fr[0].next
	fr[fi].prev, fr[fi].next = 0, first
	fr[first].prev, fr[0].next = fi, fi
}

// miss reads pageID with bp's loader and installs it in shard s. It is
// entered with s.mu held and releases it: the deferred unlock keeps the
// shard usable when load panics. A load that panics or returns an error —
// the page failed verification — counts nothing and installs nothing, so
// every later fetch of the page reads it again and reports the same
// failure. On a full shard the evicted frame is reused for the incoming
// page, so a steady-state miss allocates nothing.
//
//vaq:locked mu
func (s *poolShard) miss(bp *bufferPool, pageID, slot uint32) error {
	defer s.mu.Unlock()
	size, err := bp.load(pageID)
	if err != nil {
		return err
	}
	s.stats.PageReads++
	s.stats.BytesRead += int64(size)
	if s.capacity == 0 {
		// Caching disabled: every access is its own simulated read, and
		// the page leaves as soon as it is read.
		bp.departed[pageID].Add(1)
		return nil
	}
	var fi int32
	if s.capacity < 0 || len(s.frames) <= s.capacity {
		fi = int32(len(s.frames))
		s.frames = append(s.frames, frame{})
	} else {
		fi = s.frames[0].prev // least recently used: its frame takes the new page
		old := s.frames[fi].page
		s.index[old>>bp.shift] = 0
		bp.departed[old].Add(1)
		s.stats.Evictions++
		s.unlink(fi)
	}
	s.frames[fi].page = pageID
	s.pushFront(fi)
	s.index[slot] = fi
	return nil
}

// reset clears the cache contents and statistics.
func (bp *bufferPool) reset() {
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		for _, f := range s.frames[1:] {
			bp.departed[f.page].Add(1)
		}
		clear(s.index)
		s.frames = s.frames[:1]
		s.frames[0] = frame{}
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
