package core

import (
	"errors"
	"fmt"

	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/hilbert"
	"repro/internal/storage"
)

// ErrDuplicatePoints is returned by the data constructors: Algorithm 1
// identifies points with Voronoi sites, so coincident points would be
// unreachable through the adjacency. Deduplicate before building.
var ErrDuplicatePoints = errors.New("core: dataset contains duplicate coordinates")

// MemoryData is the record layer of every engine: what Algorithm 1 reads
// beside the index, resident in memory, plus — optionally — a paged store its
// candidates' records are fetched from.
//
// It retains exactly what queries read: the sites' positions as one slice
// and the Voronoi adjacency as a table of fixed-size CSR chunks
// (delaunay.Rings), each ring read in place through rings.Ring. Reading either
// costs no simulated IO (the R-tree leaf carries coordinates and the
// topology is precomputed alongside the index, as in the VoR-tree). A
// clipped Voronoi cell, which only the strict expansion rule on a custom
// region reads, is derived from the two when it is read
// (voronoi.CellFromNeighbors), and never kept.
//
// Every layer is one triangulation, built one way: a delaunay.Dynamic
// fenced by the layer's universe. Its ids are [0, len(pts)); the user sites
// are [first, last) and the three fence sites the rest — [last, last+3) on
// a static layer, whose user ids are the caller's indexes, and
// [0, delaunay.FirstSiteID) on a dynamic epoch, whose user ids follow them.
// By the fence lemma (package delaunay), every location of the universe is
// strictly nearer a user site than any fence site. So inside the universe
// a clipped cell is the user site's own and a fence site's is empty, and
// every bisector the strict rule or the shell trace crosses there is two
// user sites' bisector: the fence moves only edges between cells that meet
// outside the universe. A fence site is therefore an ordinary far-away site
// the BFS may route through and never a result. Len, Each and Positions
// report user sites only, and a store holds no fence record, so
// a fence site's position is always read resident.
//
// A record load — the refinement fetch both methods pay once per candidate,
// made by queryScratch.load alone — reads the resident position, unless the
// layer has a store (NewStoreData): then it reads the record off its page
// in the store, and the query's first load on a page fetches the page
// through the store's sharded LRU buffer pool, IO-accounted; the query's
// pin record (queryScratch.pins) lets its later loads on that page skip the
// pool while the page stays resident (one that has left the pool is
// fetched, and counted, again). Every layer is immutable once built and
// safe for concurrent reads; the pool's counters and LRU state sit behind
// per-page-id lock shards (StoreConfig.PoolShards tunes the count).
//
// A dynamic engine publishes one per epoch (DynamicEngine.Snapshot), with
// the triangulation's own ids.
type MemoryData struct {
	// pts are the sites' positions, indexed by id. A dynamic epoch pins the
	// writer's append-only slice (delaunay.Dynamic.Points): shared, never
	// copied.
	pts []geom.Point
	// [first, last) are the user ids: [0, n) on a static layer of n sites,
	// [delaunay.FirstSiteID, len(pts)) on a dynamic epoch. The other three
	// ids are the fence sites.
	first, last int
	// rings holds the neighbors of every id, rings.Ring(id), in
	// counterclockwise rotational order: ChunkSites sites to a chunk. A
	// static layer's chunks lie end to end in one array (delaunay.Bulk); a
	// dynamic epoch shares every chunk the inserts since the previous epoch
	// left alone with that epoch (delaunay.Dynamic.Adjacency).
	rings delaunay.Rings
	// clip is what the cells are clipped to: the bounds of a static layer, or
	// a dynamic engine's universe expanded so that fence-adjacent cells stay
	// closed.
	clip geom.Rect
	// hint names the seed walk's start. A static layer lays it over the
	// points' own MBR, not clip: a shard or a serving backend holds a slice
	// of its universe, and a grid over the universe would spend most of its
	// buckets on space the layer has no site in. A dynamic epoch keeps the
	// writer's grid as it was when the epoch was pinned (hintGrid.frozen).
	hint hintGrid
	// store holds every user site's record on pages, when the layer was
	// built by NewStoreData; nil otherwise.
	store *storage.Store
}

// NewMemoryData builds the Voronoi topology over pts and keeps what queries
// read of it. bounds must contain all points: it is the universe the fence
// surrounds and the rectangle cells are clipped to.
func NewMemoryData(pts []geom.Point, bounds geom.Rect) (*MemoryData, error) {
	m, _, err := newMemoryData(pts, bounds)
	return m, err
}

// newMemoryData is NewMemoryData, also returning the order it inserted the
// sites in: their Hilbert order over bounds, ties by index, so each walk
// starts at the previous site.
func newMemoryData(pts []geom.Point, bounds geom.Rect) (*MemoryData, []int32, error) {
	order := hilbert.Runs(pts, bounds, 1)[0]
	sites, rings, err := delaunay.Bulk(pts, bounds, order)
	if errors.Is(err, delaunay.ErrDuplicateSite) {
		return nil, nil, fmt.Errorf("%w: %w", ErrDuplicatePoints, err)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: triangulating %d sites: %w", len(pts), err)
	}
	m := &MemoryData{pts: sites, last: len(pts), rings: rings, clip: bounds}
	side := 1
	for side*side*sitesPerBucket < len(pts) {
		side++
	}
	hint := newHintGrid(geom.RectFromPoints(pts...), side)
	for i, p := range pts {
		hint.add(int32(i), p)
	}
	hint.flood()
	m.hint = hint.frozen()
	return m, order, nil
}

// Len returns the number of user sites: fence sites excluded.
func (m *MemoryData) Len() int { return m.last - m.first }

// Positions returns the resident positions of ids [0, last), the user
// sites' and, on a dynamic epoch, the fence sites' below them: the layer's
// own slice, shared, for an index to read in place (LazyRTreeIndex). The
// caller must not modify it.
func (m *MemoryData) Positions() []geom.Point { return m.pts[:m.last:m.last] }

// Each iterates the user sites in ascending id order (a sequential scan of
// the resident positions, for the brute-force oracle and tools); fn
// returning false stops it.
func (m *MemoryData) Each(fn func(id int64, pos geom.Point) bool) {
	for i := m.first; i < m.last; i++ {
		if !fn(int64(i), m.pts[i]) {
			return
		}
	}
}

// StoreConfig configures the simulated object store.
type StoreConfig struct {
	// PageSize in bytes; storage.DefaultPageSize when <= 0.
	PageSize int
	// PoolPages is the buffer pool capacity in pages (0 = no cache,
	// negative = unbounded).
	PoolPages int
	// PoolShards is the buffer pool's lock-shard count: <= 0 picks a
	// power of two at or above GOMAXPROCS, 1 is a single-lock pool, and
	// the count never exceeds a positive PoolPages nor 128 (see
	// storage.Options.PoolShards for the rounding rules).
	PoolShards int
	// PayloadBytes of opaque attribute data per record, giving records
	// realistic width. Zero is allowed; a negative count is refused.
	PayloadBytes int
}

// NewStoreData builds the layer NewMemoryData builds and materializes every
// point as a record (id + coordinates + payload) in a paged store, which
// every candidate's record load then goes through. Records go onto pages in
// the order the sites were inserted in (their Hilbert order), whatever
// order pts arrives in: the candidates of an area query are a connected
// patch of the plane, so placed this way they share pages. Ids are still
// indexes into pts; the fence sites have no record.
func NewStoreData(pts []geom.Point, bounds geom.Rect, cfg StoreConfig) (*MemoryData, error) {
	if cfg.PayloadBytes < 0 {
		return nil, fmt.Errorf("core: StoreConfig.PayloadBytes is %d, want at least 0", cfg.PayloadBytes)
	}
	m, order, err := newMemoryData(pts, bounds)
	if err != nil {
		return nil, err
	}
	builder := storage.NewBuilder(storage.Options{
		PageSize:   cfg.PageSize,
		PoolPages:  cfg.PoolPages,
		PoolShards: cfg.PoolShards,
	})
	payload := make([]byte, cfg.PayloadBytes)
	for _, id := range order {
		rec := storage.PointRecord{ID: int64(id), Pos: pts[id], Payload: payload}
		if err := builder.Append(rec); err != nil {
			return nil, fmt.Errorf("core: building store: %w", err)
		}
	}
	if m.store, err = builder.Build(); err != nil {
		return nil, fmt.Errorf("core: building store: %w", err)
	}
	return m, nil
}

// Store returns the paged store records are fetched from (for IO
// statistics and cache control), nil when records are resident.
func (m *MemoryData) Store() *storage.Store { return m.store }

// IOStats returns the store's accumulated buffer pool statistics; zero
// without a store.
func (m *MemoryData) IOStats() storage.BufferPoolStats {
	if m.store == nil {
		return storage.BufferPoolStats{}
	}
	return m.store.Stats()
}

// ResetIOStats zeroes the store's IO counters (cache contents are kept); a
// no-op without a store.
func (m *MemoryData) ResetIOStats() {
	if m.store != nil {
		m.store.ResetStats()
	}
}
