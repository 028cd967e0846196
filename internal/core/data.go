package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/geom"
	"repro/internal/hilbert"
	"repro/internal/storage"
	"repro/internal/voronoi"
)

// ErrDuplicatePoints is returned by the data constructors: Algorithm 1
// identifies points with Voronoi sites, so coincident points would be
// unreachable through the adjacency. Deduplicate before building.
var ErrDuplicatePoints = errors.New("core: dataset contains duplicate coordinates")

// MemoryData is an in-memory DataAccess: records live in Go slices and
// Load performs no simulated IO. It is the fastest option and the one used
// for pure-CPU benchmarking.
//
// It retains exactly what queries read, all structure-of-arrays:
// coordinates in parallel xs/ys float64 slices (CoordSource) and the Voronoi
// adjacency as the triangulation's CSR offset/neighbor arrays. The diagram
// and the triangulation under it — quad-edge pool, point copy, vertex tables
// — are construction scaffolding and are released when NewMemoryData
// returns. The clipped Voronoi cells, which only the strict expansion rule
// and CellArea read, are derived from the two on first use (lazyArena).
type MemoryData struct {
	xs, ys []float64
	// CSR adjacency: the neighbors of id are nbrs[nbrOff[id]:nbrOff[id+1]],
	// in counterclockwise rotational order.
	nbrOff, nbrs []int32
	bounds       geom.Rect // what the cells are clipped to
	arena        lazyArena
	// hint is laid over the points' own MBR, not bounds: a shard or a serving
	// backend holds a slice of its universe, and a grid over the universe
	// would spend most of its buckets on space the layer has no site in.
	hint hintGrid
}

// lazyArena is the one cell-arena policy of the resident data layers: built
// by the first CellArena call — a strict query or CellArea — exactly once
// however many goroutines race to it. The default method never reads a
// cell, so an engine that runs nothing else never pays the clipping pass or
// holds its ≈ 130 bytes per site.
type lazyArena struct {
	once  sync.Once
	cells *voronoi.CellArena
}

// get returns d's cells clipped to clip, built from d's positions and
// adjacency on the first call: bit-identical to voronoi.BuildCellArena over
// the triangulation d was derived from (same coordinates, neighbor order
// and clipping loop).
func (l *lazyArena) get(d DataAccess, clip geom.Rect) *voronoi.CellArena {
	l.once.Do(func() {
		l.cells = voronoi.CellArenaFromSites(d.NumIDs(), clip, d.Position, d.Neighbors)
	})
	return l.cells
}

// NewMemoryData builds the Voronoi topology over pts and wraps it in a
// DataAccess. bounds must contain all points (it bounds the Voronoi cells).
func NewMemoryData(pts []geom.Point, bounds geom.Rect) (*MemoryData, error) {
	d, err := voronoi.New(pts, bounds)
	if err != nil {
		return nil, err
	}
	if d.NumSites() != len(pts) {
		return nil, ErrDuplicatePoints
	}
	m := &MemoryData{
		xs:     make([]float64, len(pts)),
		ys:     make([]float64, len(pts)),
		bounds: bounds,
	}
	// No duplicates, so every input index is its own canonical vertex and
	// the triangulation's CSR arrays are indexed by id directly.
	m.nbrOff, m.nbrs = d.Triangulation().Adjacency()
	side := 1
	for side*side*sitesPerBucket < len(pts) {
		side++
	}
	hint := newHintGrid(geom.RectFromPoints(pts...), side)
	for i, p := range pts {
		m.xs[i], m.ys[i] = p.X, p.Y
		hint.add(int32(i), p)
	}
	hint.flood()
	m.hint = hint.frozen()
	return m, nil
}

// NumIDs implements DataAccess.
func (m *MemoryData) NumIDs() int { return len(m.xs) }

// Position implements DataAccess.
func (m *MemoryData) Position(id int64) geom.Point {
	return geom.Point{X: m.xs[id], Y: m.ys[id]}
}

// Coords implements CoordSource.
func (m *MemoryData) Coords() (xs, ys []float64) { return m.xs, m.ys }

// Adjacency implements AdjacencySource.
func (m *MemoryData) Adjacency() (off, nbrs []int32) { return m.nbrOff, m.nbrs }

// Neighbors implements DataAccess: the resident CSR slice.
func (m *MemoryData) Neighbors(id int64) []int32 {
	return m.nbrs[m.nbrOff[id]:m.nbrOff[id+1]]
}

// SeedHint implements DataAccess.
//
//vaq:noalloc
func (m *MemoryData) SeedHint(p geom.Point) int64 { return m.hint.lookup(p) }

// Load implements DataAccess; in-memory data loads for free. The engine's
// own queries do not call it: over a *MemoryData they read xs and ys in
// place (see voronoiQuery.resident).
func (m *MemoryData) Load(id int64) (geom.Point, error) {
	return geom.Point{X: m.xs[id], Y: m.ys[id]}, nil
}

// Each implements DataAccess.
func (m *MemoryData) Each(fn func(id int64, pos geom.Point) bool) {
	for i := range m.xs {
		if !fn(int64(i), geom.Point{X: m.xs[i], Y: m.ys[i]}) {
			return
		}
	}
}

// CellArena implements DataAccess.
func (m *MemoryData) CellArena() *voronoi.CellArena { return m.arena.get(m, m.bounds) }

// StoreData is a DataAccess whose Load goes through a paged object store
// with a sharded LRU buffer pool, so every refinement fetch is
// IO-accounted. Everything else is the embedded MemoryData: the Voronoi
// topology, the raw coordinates and the lazily built cell arena stay in
// memory (index-resident), as in a VoR-tree deployment, and Each — the
// brute-force scan — reads them without touching the pool. It is safe for
// concurrent use: the store is immutable and the pool's counters and LRU
// state sit behind per-page-id lock shards (StoreConfig.PoolShards tunes the
// count).
type StoreData struct {
	*MemoryData
	store *storage.Store
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

// NewStoreData builds the Voronoi topology over pts and materializes every
// point as a record (id + coordinates + payload) in a paged store. Records
// go onto pages in the Hilbert order of their positions over bounds, ties
// by id, whatever order pts arrives in: the candidates of an area query are
// a connected patch of the plane, so placed this way they share pages.
// Ids are still indexes into pts.
func NewStoreData(pts []geom.Point, bounds geom.Rect, cfg StoreConfig) (*StoreData, error) {
	mem, err := NewMemoryData(pts, bounds)
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
	st, err := builder.Build()
	if err != nil {
		return nil, fmt.Errorf("core: building store: %w", err)
	}
	return &StoreData{MemoryData: mem, store: st}, nil
}

// Load implements DataAccess: it fetches the record's page through the
// buffer pool, paying simulated IO, and reads the authoritative position
// out of it without copying the rest of the record.
func (s *StoreData) Load(id int64) (geom.Point, error) {
	return s.store.GetPosition(id)
}

// Store exposes the underlying object store (for IO statistics).
func (s *StoreData) Store() *storage.Store { return s.store }

// IOStats returns the accumulated buffer pool statistics.
func (s *StoreData) IOStats() storage.BufferPoolStats { return s.store.Stats() }

// ResetIOStats zeroes the IO counters (cache contents are kept).
func (s *StoreData) ResetIOStats() { s.store.ResetStats() }
