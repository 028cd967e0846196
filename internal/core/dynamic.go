package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/delaunay"
	"repro/internal/geom"
	"repro/internal/obs"
)

// DynamicEngine answers area queries over a growing dataset: points are
// inserted one at a time into a dynamic Delaunay triangulation — the update
// capability the paper leaves as future work.
//
// Concurrency follows an epoch-snapshot scheme. The live triangulation and
// hint grid belong to the writer: Insert mutates them under an internal
// mutex (multiple inserting goroutines are therefore serialized, not racy).
// Queries never touch the live structures — every query pins the current
// epoch's immutable Engine, published through an atomic pointer, so any
// number of goroutines can query it concurrently with insertion and never
// observe a half-applied update. Epochs are published lazily: the first
// read after a write publishes one, and every subsequent read reuses the
// published epoch for free. A publish shares the writer's
// append-only point storage outright. The Voronoi adjacency, which
// InsertSite's edge swaps rewire in place, is published as a table of
// fixed-size ring chunks (delaunay.Rings, delaunay.Dynamic.Adjacency);
// points and rings make the epoch a MemoryData like a static engine's. Each
// epoch's table is patched from the previous epoch's: the chunks holding
// the ring of a site inserted since or of one of its neighbors are rebuilt,
// and every other chunk is the previous epoch's own, shared. A one-insert
// epoch at 50k sites copies ≈ 200 chunk headers and rebuilds ≈ 6 chunks,
// ≈ 58 KB, in ≈ 17–22 µs on a 2-core Xeon @ 2.1 GHz (BenchmarkPublish),
// where copying every ring took ≈ 0.28–0.31 ms and 1.45 MB; the first
// publish walks every ring, ≈ 9 ms. Every epoch's queries draw their scratch from one pool, so a new
// epoch starts with the visited table the last one warmed.
//
// What only the traditional method reads, an epoch builds on first use,
// once: its R-tree, STR-packed over the epoch's points as every engine's is
// (LazyRTreeIndex) — ≈ 35 ms at 60k sites on the same host. An epoch
// that runs no Traditional query builds none, and the writer keeps no index
// at all. No method builds anything else: the strict rule clips a custom
// region's cells one at a time as it tests them.
//
// An Insert costs what its three parts cost — ≈ 3 µs at 50k uniform sites
// on the same host: the hint grid names a site near the new one (≈ 0.3 µs),
// the triangulation walks from there and connects and swaps (≈ 2.5 µs;
// started from the previous insertion instead, the walk makes it ≈ 36 µs),
// and the grid records the site (≈ 0.1 µs). A duplicate coordinate is
// answered from the triangulation's coordinate table before any of that.
//
// Write visibility: a query that starts after an Insert call returns is
// guaranteed to observe that insert; a query concurrent with an Insert
// observes either the epoch before it or after it, never a mixture.
type DynamicEngine struct {
	mu sync.Mutex        // serializes writers and snapshot publication
	dt *delaunay.Dynamic // guarded by mu (the pointer is set once; mu guards the mutable topology)
	// hint is the seed walk's grid over the universe, at a fixed resolution;
	// Insert records each site in it and every publish freezes it. Guarded by
	// mu.
	hint hintGrid

	// n counts accepted inserts; it is bumped (under mu) after the
	// triangulation and the hint grid both reflect the new point, so a reader
	// that observes n and publishes under mu sees at least n points.
	n atomic.Int64
	// snap is the most recently published epoch's engine (nil until first
	// read); its data layer's Len is the insert count it reflects.
	snap atomic.Pointer[Engine]
	// scratch is the one query-scratch pool every epoch's Engine borrows, so
	// the first query of an epoch finds the table the previous one warmed.
	// Allocated on its own: a pinned epoch reaches the pool, and must not
	// reach the writer through it.
	scratch *sync.Pool

	// publishHist, when non-nil, observes the latency of each snapshot
	// rebuild+publish (set once via SetPublishMetrics before concurrent
	// use). lastPublish is the UnixNano wall time of the latest publish,
	// 0 before the first; together they answer "how stale is the view
	// queries are seeing, and what does refreshing it cost".
	publishHist *obs.Histogram
	lastPublish atomic.Int64
}

// SetPublishMetrics attaches a histogram that observes snapshot
// publish latency (the adjacency patch of Snapshot). It must be called
// before the engine is shared between goroutines — typically right
// after NewDynamicEngine — and is a no-op with a nil histogram.
func (d *DynamicEngine) SetPublishMetrics(h *obs.Histogram) { d.publishHist = h }

// LastPublish returns the wall-clock time the current snapshot was
// published, and false before any snapshot has been built. The age of
// that instant is how stale a lock-free reader's view can be.
func (d *DynamicEngine) LastPublish() (time.Time, bool) {
	ns := d.lastPublish.Load()
	if ns == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, ns), true
}

// dynamicHintSide is the resolution of a dynamic engine's hint grid. It
// cannot follow a point count nobody knows yet, so it is the one that suits
// the tens of thousands of sites a publish is affordable at: 64 KB of
// entries, ≈ 3 sites per bucket at 50k (≈ 1 step per walk; 64×64 measured
// ≈ 2 steps and 0.8 µs where this reads 0.5).
const dynamicHintSide = 128

// NewDynamicEngine returns an empty dynamic engine over the universe
// rectangle. All inserted points must lie within it.
func NewDynamicEngine(universe geom.Rect) *DynamicEngine {
	dt := delaunay.NewDynamic(universe)
	return &DynamicEngine{
		dt:      dt,
		hint:    newHintGrid(dt.Universe(), dynamicHintSide),
		scratch: newScratchPool(),
	}
}

// Len returns the number of inserted points: the current epoch, which
// counts accepted inserts.
func (d *DynamicEngine) Len() int { return int(d.n.Load()) }

// PointOK returns the coordinates of id and whether id is a user site the
// engine currently holds. Safe to call concurrently with Insert. Ids
// covered by the published epoch are served lock-free (positions never
// change once assigned); only ids newer than that epoch fall back to the
// writer mutex.
func (d *DynamicEngine) PointOK(id int64) (geom.Point, bool) {
	if id < int64(delaunay.FirstSiteID) {
		return geom.Point{}, false
	}
	if s := d.snap.Load(); s != nil && id < int64(len(s.data.pts)) {
		return s.data.pts[id], true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id >= int64(d.dt.NumSites()) {
		return geom.Point{}, false
	}
	return d.dt.Point(int(id)), true
}

// Insert adds a point and returns its id. Inserting an existing coordinate
// returns the existing id with inserted == false. Inserts from multiple
// goroutines are serialized by an internal mutex; in-flight queries keep
// reading their pinned epoch and are never blocked.
func (d *DynamicEngine) Insert(p geom.Point) (id int64, inserted bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if sid, dup := d.dt.SiteAt(p); dup {
		return int64(sid), false, nil
	}
	// The seed walk's grid names a site near p, so the locate walk starts
	// there; while it holds no site there is no hint to give (-1).
	sid, ins, err := d.dt.InsertSiteNear(p, int(d.hint.lookup(p)))
	if err != nil {
		if errors.Is(err, delaunay.ErrOutsideUniverse) {
			// One exported sentinel for the condition across the whole stack.
			err = fmt.Errorf("core: insert %v outside the dynamic engine universe %v: %w",
				p, d.dt.Universe(), ErrOutsideUniverse)
		}
		return 0, false, err
	}
	if ins {
		d.hint.add(int32(sid), p)
		d.hint.flood()
		d.n.Add(1)
	}
	return int64(sid), ins, nil
}

// Snapshot pins the current epoch and returns its immutable engine: every
// query on it sees exactly the points inserted before the call, however
// many inserts follow, and its data layer's Len is their count (ErrNoData
// while it is zero). The first Snapshot after a write publishes the epoch
// (the adjacency patched from the previous epoch's, serialized with
// writers; the R-tree is packed by the epoch's first Traditional query, not
// here); repeated Snapshots between writes return the same published
// engine with no copying or locking. The engine is safe for concurrent use
// and stays valid — and unchanged — forever. Refusing a region outside the
// universe is the public Querier body's job.
func (d *DynamicEngine) Snapshot() *Engine {
	// Fast path: the published epoch is current. Loading the count first
	// makes the check conservative — a concurrent insert can only force an
	// unnecessary publish, never return an epoch older than an insert that
	// completed before this call.
	n := int(d.n.Load())
	if s := d.snap.Load(); s != nil && s.data.Len() == n {
		return s
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n = int(d.n.Load()) // stable: writers bump it only under mu
	if s := d.snap.Load(); s != nil && s.data.Len() == n {
		return s
	}
	var buildStart time.Time
	if d.publishHist != nil {
		buildStart = time.Now()
	}
	// The adjacency is patched from the epoch this one replaces.
	var prev delaunay.Rings
	prevSites := 0
	if s := d.snap.Load(); s != nil {
		prev, prevSites = s.data.rings, len(s.data.pts)
	}
	rings := d.dt.Adjacency(prev, prevSites)
	pts, u := d.dt.Points(), d.dt.Universe()
	data := &MemoryData{
		pts:   pts,
		first: delaunay.FirstSiteID,
		last:  len(pts),
		rings: rings,
		clip:  u.Expand(u.Width() + u.Height() + 1),
		hint:  d.hint.frozen(),
	}
	s := newEngine(LazyRTreeIndex(data), data, d.scratch)
	d.snap.Store(s)
	d.lastPublish.Store(time.Now().UnixNano())
	if d.publishHist != nil {
		d.publishHist.Observe(time.Since(buildStart))
	}
	return s
}
