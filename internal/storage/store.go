package storage

import (
	"fmt"
	"hash/crc32"
	"slices"
	"time"

	"repro/internal/geom"
)

// Store is a read-only paged object store built once by a Builder and held
// in memory for the life of the process: it simulates the paper's database,
// so it has no file format and cannot be opened from one. Every record is
// read out of the store's own pages; the buffer pool (bufferPool) holds no
// bytes, only which pages a read would find resident, and counts the
// simulated IO. A record read is a directory lookup (ids are dense), a
// pool fetch of its page — one shard lock, one index lookup, one LRU splice
// — and the slot and record framing checks (slotRecord). A query reads
// positions through a pin record (GetPosition): it asks the pool for a page
// at its first load there, and its later loads on the page, while the page
// stays resident, are the directory lookup, a check that the page has not
// left the pool, and the framing checks. A load on a page that has left the
// pool asks the pool again, so every simulated read is counted; a page's
// recency in the pool is its query's first load on it, not its last. A page
// is checksummed when it is read into the pool, not when it is hit, against
// a sum kept with the directory rather than in the page: a page whose bytes
// changed after Build never enters the pool, is never pinned, and every
// fetch of a record on it fails with ErrCorrupt. Get, GetPosition, Stats,
// ResetStats and DropCache are safe for concurrent use (a pin record is its
// caller's own): the pages, their sums and the directory are immutable, and
// all mutable state is the pool's.
type Store struct {
	pages [][]byte
	sums  []uint32 // indexed by page id: the CRC-32C of the page as sealed
	dir   []RID    // indexed by record id
	pool  *bufferPool
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Builder.
type Options struct {
	// PageSize is the page size in bytes; DefaultPageSize when <= 0.
	PageSize int
	// PoolPages is the buffer pool capacity in pages. 0 disables caching;
	// negative means "unbounded" (everything stays cached).
	PoolPages int
	// PoolShards is the number of buffer-pool lock shards. <= 0 picks a
	// power of two at or above GOMAXPROCS; 1 reproduces a single-lock
	// pool; other values round up to a power of two, capped at 128. The
	// count also never exceeds a positive PoolPages (per-shard capacity
	// is ceil(PoolPages/shards), so the effective pool size rounds up to
	// at most PoolPages+shards-1 pages).
	PoolShards int
}

// Builder accumulates records and produces an immutable Store.
type Builder struct {
	opts    Options
	pages   [][]byte
	sums    []uint32
	dir     []RID // indexed by record id; noRID where none was appended yet
	records int   // the number of records appended
	current *pageBuilder
	err     error
}

// maxRecords bounds a record id: the directory is a slice indexed by id, so
// an id is also the length a Builder grows it to.
const maxRecords = 1 << 31

// noRID marks a directory entry no record has filled; no page of a store
// with fewer than 2^32-1 pages has its number.
var noRID = RID{Page: ^uint32(0)}

// NewBuilder returns a Builder with the given options.
func NewBuilder(opts Options) *Builder {
	if opts.PageSize <= 0 {
		opts.PageSize = DefaultPageSize
	}
	return &Builder{
		opts:    opts,
		current: newPageBuilder(opts.PageSize),
	}
}

// Append adds a record. Each id is appended once, in any order: a repeat or
// a negative id is rejected here and leaves the builder usable, and Build
// rejects a set of ids that leaves a gap, so the directory it fills by id is
// dense. Pages fill in append order, so the order of the calls is the
// layout of the heap file. The record is encoded into the page under
// construction before Append returns, so the caller may reuse rec's Payload
// for the next one.
func (b *Builder) Append(rec PointRecord) error {
	if b.err != nil {
		return b.err
	}
	if rec.ID < 0 || rec.ID >= maxRecords {
		return fmt.Errorf("storage: record id %d out of range [0, %d)", rec.ID, int64(maxRecords))
	}
	if rec.ID < int64(len(b.dir)) && b.dir[rec.ID] != noRID {
		return fmt.Errorf("storage: record id %d appended twice", rec.ID)
	}
	if err := rec.checkEncodable(); err != nil {
		b.err = err
		return err
	}
	n := rec.encodedLen()
	if n+pageHeaderLen+slotDirLen > b.opts.PageSize {
		return fmt.Errorf("%w: %d bytes, page size %d", ErrRecordTooLarge, n, b.opts.PageSize)
	}
	if !b.current.fits(n) {
		b.sealPage()
	}
	for int64(len(b.dir)) <= rec.ID {
		b.dir = append(b.dir, noRID)
	}
	b.dir[rec.ID] = RID{Page: uint32(len(b.pages)), Slot: b.current.add(&rec)}
	b.records++
	return nil
}

// sealPage closes the page under construction and records its checksum.
func (b *Builder) sealPage() {
	page := b.current.seal()
	b.pages = append(b.pages, page)
	b.sums = append(b.sums, crc32.Checksum(page, castagnoli))
}

// Build seals the final page and returns the Store. The Builder must not
// be used afterwards.
func (b *Builder) Build() (*Store, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.records != len(b.dir) {
		missing := slices.Index(b.dir, noRID)
		return nil, fmt.Errorf("storage: record id %d missing: ids must be 0..%d, each once", missing, len(b.dir)-1)
	}
	if !b.current.empty() {
		b.sealPage()
	}
	s := &Store{pages: b.pages, sums: b.sums, dir: b.dir}
	s.pool = newBufferPool(b.opts.PoolPages, b.opts.PoolShards, len(s.pages), s.readPage)
	return s, nil
}

// readPage is the pool's loader: the simulated read of page p, verified
// against the checksum taken when the page was sealed, reporting the bytes
// read. The one sequential pass also pulls the page through the CPU cache,
// so the record reads that follow on it find their lines resident.
func (s *Store) readPage(p uint32) (int, error) {
	page := s.pages[p]
	if crc32.Checksum(page, castagnoli) != s.sums[p] {
		return 0, fmt.Errorf("%w: page %d does not match its checksum", ErrCorrupt, p)
	}
	return len(page), nil
}

// Len returns the number of stored records.
func (s *Store) Len() int { return len(s.dir) }

// NumPages returns the number of pages in the heap file.
func (s *Store) NumPages() int { return len(s.pages) }

// Get fetches the record with the given id through the buffer pool. The
// returned record shares no memory with the heap file: decodeRecord
// deep-copies every variable field at this boundary, so callers may mutate
// the record freely.
func (s *Store) Get(id int64) (PointRecord, error) {
	if id < 0 || id >= int64(len(s.dir)) {
		return PointRecord{}, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	rid := s.dir[id]
	if err := s.pool.fetch(rid.Page); err != nil {
		return PointRecord{}, err
	}
	rec, err := slotRecord(s.pages[rid.Page], rid.Slot)
	if err != nil {
		return PointRecord{}, err
	}
	return decodeRecord(rec), nil
}

// GetPosition reads only the coordinates of the record with the given id,
// through the caller's pin record: pins holds one stamp per page (NumPages
// of them) and gen is the caller's current pass (a query), never 0. A read
// asks the buffer pool for its page unless the pass has already done so and
// the page has not left the pool since, so a page the pool misses is
// checksummed on its way in, and a read that the pool would count as a page
// read always goes through it and is counted. The stamp records the pass
// and the page's departure count (bufferPool.departed) as they stood before
// the pool was asked; a page that fails its checksum is never stamped. A
// nil pins stamps nothing: every read goes through the pool, as Get's
// does. Either way the record is read out of the store's own page, through
// the slot and record framing checks (slotRecord), and nothing is copied
// out of the page but the coordinates. spent, when non-nil, accrues the
// time the pool reads took, and the clock is read around those alone.
//
//vaq:noalloc
func (s *Store) GetPosition(id int64, pins []uint64, gen uint32, spent *time.Duration) (geom.Point, error) {
	if id < 0 || id >= int64(len(s.dir)) {
		//vaqvet:ignore noalloc cold failure path; the wrap allocates only for an id the store does not hold
		return geom.Point{}, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	rid := s.dir[id]
	var stamp uint64
	pinning := int(rid.Page) < len(pins)
	if pinning {
		stamp = uint64(gen)<<32 | uint64(s.pool.departed[rid.Page].Load())
	}
	if !pinning || pins[rid.Page] != stamp {
		var t0 time.Time
		if spent != nil {
			t0 = time.Now()
		}
		err := s.pool.fetch(rid.Page)
		if spent != nil {
			*spent += time.Since(t0)
		}
		if err != nil {
			return geom.Point{}, err
		}
		if pinning {
			pins[rid.Page] = stamp
		}
	}
	rec, err := slotRecord(s.pages[rid.Page], rid.Slot)
	if err != nil {
		return geom.Point{}, err
	}
	return recordPos(rec), nil
}

// Stats returns the accumulated buffer pool statistics.
func (s *Store) Stats() BufferPoolStats { return s.pool.snapshot() }

// ResetStats zeroes the IO counters without dropping cached pages.
func (s *Store) ResetStats() { s.pool.resetStats() }

// DropCache empties the buffer pool and zeroes the counters, simulating a
// cold start.
func (s *Store) DropCache() { s.pool.reset() }
