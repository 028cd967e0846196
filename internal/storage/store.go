package storage

import (
	"fmt"

	"repro/internal/geom"
)

// Store is a read-only paged object store built once by a Builder and held
// in memory for the life of the process: it simulates the paper's database,
// so it has no file format and cannot be opened from one. A record fetch is
// a directory lookup (ids are dense), a buffer-pool fetch — one shard lock,
// one LRU splice — and the slot and record framing checks; the pool's
// counters expose the simulated IO cost. Get, Stats, ResetStats and
// DropCache are safe for concurrent use: the pages and the directory are
// immutable, and all mutable state is the pool's (see bufferPool).
type Store struct {
	pages [][]byte
	dir   []RID // indexed by record id
	pool  *bufferPool
}

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
	dir     []RID
	current *pageBuilder
	err     error
}

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

// Append adds a record. Ids are dense and arrive in order: the record's ID
// must be the number of records appended so far, anything else (a repeat, a
// gap, a negative id) is rejected.
func (b *Builder) Append(rec PointRecord) error {
	if b.err != nil {
		return b.err
	}
	if rec.ID != int64(len(b.dir)) {
		return fmt.Errorf("storage: record id %d out of order, want %d", rec.ID, len(b.dir))
	}
	buf, err := rec.encode(make([]byte, 0, rec.encodedLen()))
	if err != nil {
		b.err = err
		return err
	}
	if len(buf)+pageHeaderLen+slotDirLen > b.opts.PageSize {
		return fmt.Errorf("%w: %d bytes, page size %d", ErrRecordTooLarge, len(buf), b.opts.PageSize)
	}
	if !b.current.fits(len(buf)) {
		b.pages = append(b.pages, b.current.seal())
		b.current = newPageBuilder(b.opts.PageSize)
	}
	slot := b.current.add(buf)
	b.dir = append(b.dir, RID{Page: uint32(len(b.pages)), Slot: slot})
	return nil
}

// Build seals the final page and returns the Store. The Builder must not
// be used afterwards.
func (b *Builder) Build() (*Store, error) {
	if b.err != nil {
		return nil, b.err
	}
	if !b.current.empty() {
		b.pages = append(b.pages, b.current.seal())
		b.current = newPageBuilder(b.opts.PageSize)
	}
	return &Store{
		pages: b.pages,
		dir:   b.dir,
		pool:  newBufferPool(b.opts.PoolPages, b.opts.PoolShards),
	}, nil
}

// Len returns the number of stored records.
func (s *Store) Len() int { return len(s.dir) }

// NumPages returns the number of pages in the heap file.
func (s *Store) NumPages() int { return len(s.pages) }

// Get fetches the record with the given id through the buffer pool. The
// returned record shares no memory with the cache or the heap file:
// fetched pages are read-only inside the store, and decodeRecord
// deep-copies every variable field at this boundary, so callers may
// mutate the record freely.
func (s *Store) Get(id int64) (PointRecord, error) {
	raw, err := s.rawRecord(id)
	if err != nil {
		return PointRecord{}, err
	}
	return decodeRecord(raw)
}

// GetPosition fetches only the coordinates of the record with the given
// id. It costs the same IO as Get — directory lookup, buffer-pool fetch,
// slot and framing checks — but copies nothing out of the page, which is
// all a refinement step that validates a candidate's position needs.
func (s *Store) GetPosition(id int64) (geom.Point, error) {
	raw, err := s.rawRecord(id)
	if err != nil {
		return geom.Point{}, err
	}
	return decodePosition(raw)
}

// rawRecord returns id's encoded record through the buffer pool. The bytes
// alias the cached page and are read-only (see bufferPool.fetch); they must
// not leave the package undecoded.
func (s *Store) rawRecord(id int64) ([]byte, error) {
	if id < 0 || id >= int64(len(s.dir)) {
		return nil, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	rid := s.dir[id]
	page := s.pool.fetch(rid.Page, func(p uint32) []byte { return s.pages[p] })
	return pageRecord(page, rid.Slot)
}

// Stats returns the accumulated buffer pool statistics.
func (s *Store) Stats() BufferPoolStats { return s.pool.snapshot() }

// ResetStats zeroes the IO counters without dropping cached pages.
func (s *Store) ResetStats() { s.pool.resetStats() }

// DropCache empties the buffer pool and zeroes the counters, simulating a
// cold start.
func (s *Store) DropCache() { s.pool.reset() }
