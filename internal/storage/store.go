package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/geom"
)

// Store is a read-only paged object store built once by a Builder. Record
// fetches go through a sharded LRU buffer pool whose counters expose the
// simulated IO cost. Get, Stats, ResetStats and DropCache are safe for
// concurrent use: the pages and record directory are immutable, and the
// buffer pool partitions its mutable state over power-of-two lock shards
// keyed by page id, with page loads running outside the shard locks
// (duplicate loads of one page are suppressed singleflight-style). Fetches
// only contend when they land on the same shard at the same instant, so
// parallel query batches scale with cores instead of serializing on one
// pool mutex; Options.PoolShards tunes the shard count.
type Store struct {
	pageSize int
	pages    [][]byte
	dir      map[int64]RID
	pool     *bufferPool
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
	dir     map[int64]RID
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
		dir:     make(map[int64]RID),
		current: newPageBuilder(opts.PageSize),
	}
}

// Append adds a record. Records with duplicate IDs are rejected.
func (b *Builder) Append(rec PointRecord) error {
	if b.err != nil {
		return b.err
	}
	if _, dup := b.dir[rec.ID]; dup {
		return fmt.Errorf("storage: duplicate record id %d", rec.ID)
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
	b.dir[rec.ID] = RID{Page: uint32(len(b.pages)), Slot: slot}
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
		pageSize: b.opts.PageSize,
		pages:    b.pages,
		dir:      b.dir,
		pool:     newBufferPool(b.opts.PoolPages, b.opts.PoolShards),
	}, nil
}

// Len returns the number of stored records.
func (s *Store) Len() int { return len(s.dir) }

// NumPages returns the number of pages in the heap file.
func (s *Store) NumPages() int { return len(s.pages) }

// PageSize returns the page size in bytes.
func (s *Store) PageSize() int { return s.pageSize }

// PoolShards returns the resolved buffer-pool lock-shard count.
func (s *Store) PoolShards() int { return s.pool.numShards() }

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
	rid, ok := s.dir[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
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

// Scan calls fn for every record in heap order; fn returning false stops
// the scan. The scan bypasses the buffer pool (sequential IO).
func (s *Store) Scan(fn func(PointRecord) bool) error {
	for _, page := range s.pages {
		n := pageSlotCount(page)
		for slot := 0; slot < n; slot++ {
			raw, err := pageRecord(page, uint16(slot))
			if err != nil {
				return err
			}
			rec, err := decodeRecord(raw)
			if err != nil {
				return err
			}
			if !fn(rec) {
				return nil
			}
		}
	}
	return nil
}

// IDs returns all record ids in ascending order.
func (s *Store) IDs() []int64 {
	out := make([]int64, 0, len(s.dir))
	for id := range s.dir {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// file format:
//
//	magic "VAQSTOR1" (8 bytes)
//	uint32 pageSize, uint32 pageCount, uint32 dirCount
//	pages (pageCount × pageSize bytes)
//	directory entries: int64 id, uint32 page, uint16 slot
var fileMagic = [8]byte{'V', 'A', 'Q', 'S', 'T', 'O', 'R', '1'}

// WriteTo serializes the store. It implements io.WriterTo.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	var written int64
	count := func(n int, err error) error {
		written += int64(n)
		return err
	}
	if err := count(w.Write(fileMagic[:])); err != nil {
		return written, err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(s.pageSize))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(s.pages)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(s.dir)))
	if err := count(w.Write(hdr[:])); err != nil {
		return written, err
	}
	for _, p := range s.pages {
		if err := count(w.Write(p)); err != nil {
			return written, err
		}
	}
	var ent [14]byte
	for _, id := range s.IDs() {
		rid := s.dir[id]
		binary.LittleEndian.PutUint64(ent[0:], uint64(id))
		binary.LittleEndian.PutUint32(ent[8:], rid.Page)
		binary.LittleEndian.PutUint16(ent[12:], rid.Slot)
		if err := count(w.Write(ent[:])); err != nil {
			return written, err
		}
	}
	return written, nil
}

// Read deserializes a store written by WriteTo. The pool capacity is taken
// from opts (page size in opts is ignored; the file's is used).
func Read(r io.Reader, opts Options) (*Store, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("storage: reading magic: %w", err)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic[:])
	}
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("storage: reading header: %w", err)
	}
	pageSize := int(binary.LittleEndian.Uint32(hdr[0:]))
	pageCount := int(binary.LittleEndian.Uint32(hdr[4:]))
	dirCount := int(binary.LittleEndian.Uint32(hdr[8:]))
	if pageSize <= 0 || pageSize > 1<<26 {
		return nil, fmt.Errorf("%w: implausible page size %d", ErrCorrupt, pageSize)
	}
	pages := make([][]byte, pageCount)
	for i := range pages {
		pages[i] = make([]byte, pageSize)
		if _, err := io.ReadFull(r, pages[i]); err != nil {
			return nil, fmt.Errorf("storage: reading page %d: %w", i, err)
		}
	}
	dir := make(map[int64]RID, dirCount)
	var ent [14]byte
	for i := 0; i < dirCount; i++ {
		if _, err := io.ReadFull(r, ent[:]); err != nil {
			return nil, fmt.Errorf("storage: reading directory: %w", err)
		}
		id := int64(binary.LittleEndian.Uint64(ent[0:]))
		dir[id] = RID{
			Page: binary.LittleEndian.Uint32(ent[8:]),
			Slot: binary.LittleEndian.Uint16(ent[12:]),
		}
	}
	return &Store{
		pageSize: pageSize,
		pages:    pages,
		dir:      dir,
		pool:     newBufferPool(opts.PoolPages, opts.PoolShards),
	}, nil
}
