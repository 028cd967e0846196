package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/hilbert"
	"repro/internal/storage"
	"repro/internal/voronoi"
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
// and the Voronoi adjacency as CSR offset/neighbor arrays. Reading either
// costs no simulated IO (the R-tree leaf carries coordinates and the
// topology is precomputed alongside the index, as in the VoR-tree). The
// diagram and the triangulation under a static layer — quad-edge pool,
// point copy, vertex tables — are construction scaffolding, released when
// NewMemoryData returns. A clipped Voronoi cell, which only the strict
// expansion rule on a custom region reads, is derived from the two when it
// is read (voronoi.CellFromNeighbors), and never kept.
//
// A record load — the refinement fetch both methods pay once per candidate
// — reads the resident position, unless the layer has a store (NewStoreData):
// then it is a page fetch through the store's sharded LRU buffer pool,
// IO-accounted. Every layer is immutable once built and safe for concurrent
// reads; the pool's counters and LRU state sit behind per-page-id lock
// shards (StoreConfig.PoolShards tunes the count).
//
// A dynamic engine publishes one per epoch (DynamicEngine.Snapshot): its
// ids are the triangulation's, and the three fence sites below
// delaunay.FirstSiteID are ordinary far-away sites the BFS may route
// through, which Len and Each skip.
type MemoryData struct {
	// pts are the sites' positions, indexed by id. A dynamic epoch pins the
	// writer's append-only slice (delaunay.Dynamic.Points): shared, never
	// copied.
	pts []geom.Point
	// first is the first user id: 0, or delaunay.FirstSiteID on a dynamic
	// epoch, whose lower ids are the fence sites.
	first int
	// CSR adjacency: the neighbors of id are nbrs[nbrOff[id]:nbrOff[id+1]],
	// in counterclockwise rotational order. A dynamic epoch's are patched
	// from the previous epoch's (delaunay.Dynamic.Adjacency).
	nbrOff, nbrs []int32
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
// read of it. bounds must contain all points (it bounds the Voronoi cells).
func NewMemoryData(pts []geom.Point, bounds geom.Rect) (*MemoryData, error) {
	d, err := voronoi.New(pts, bounds)
	if err != nil {
		return nil, err
	}
	if d.NumSites() != len(pts) {
		return nil, ErrDuplicatePoints
	}
	m := &MemoryData{pts: slices.Clone(pts), clip: bounds}
	// No duplicates, so every input index is its own canonical vertex and
	// the triangulation's CSR arrays are indexed by id directly.
	m.nbrOff, m.nbrs = d.Triangulation().Adjacency()
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
	return m, nil
}

// Len returns the number of user sites: fence sites excluded.
func (m *MemoryData) Len() int { return len(m.pts) - m.first }

// Position returns the resident coordinates of id, without record IO.
func (m *MemoryData) Position(id int64) geom.Point { return m.pts[id] }

// Each iterates the user sites in ascending id order (a sequential scan of
// the resident positions, for the brute-force oracle and tools); fn
// returning false stops it.
func (m *MemoryData) Each(fn func(id int64, pos geom.Point) bool) {
	for i := m.first; i < len(m.pts); i++ {
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
	// realistic width. Zero is allowed.
	PayloadBytes int
}

// NewStoreData builds the layer NewMemoryData builds and materializes every
// point as a record (id + coordinates + payload) in a paged store, which
// every candidate's record load then goes through. Records go onto pages in
// the Hilbert order of their positions over bounds, ties by id, whatever
// order pts arrives in: the candidates of an area query are a connected
// patch of the plane, so placed this way they share pages. Ids are still
// indexes into pts.
func NewStoreData(pts []geom.Point, bounds geom.Rect, cfg StoreConfig) (*MemoryData, error) {
	m, err := NewMemoryData(pts, bounds)
	if err != nil {
		return nil, err
	}
	builder := storage.NewBuilder(storage.Options{
		PageSize:   cfg.PageSize,
		PoolPages:  cfg.PoolPages,
		PoolShards: cfg.PoolShards,
	})
	// A curve index of hilbert.Order 16 fits in 32 bits, so key and id pack
	// into one word that sorts by key, then id.
	sc := hilbert.NewScaler(bounds.MinX, bounds.MinY, bounds.MaxX, bounds.MaxY, hilbert.Order)
	order := make([]uint64, len(pts))
	for i, p := range pts {
		order[i] = sc.D(p.X, p.Y)<<32 | uint64(i)
	}
	slices.Sort(order)
	payload := make([]byte, cfg.PayloadBytes)
	for _, k := range order {
		id := int64(k & math.MaxUint32)
		rec := storage.PointRecord{ID: id, Pos: pts[id], Payload: payload}
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
