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
	"repro/internal/rtree"
)

// DynamicEngine answers area queries over a growing dataset: points are
// inserted one at a time into a dynamic Delaunay triangulation — the update
// capability the paper leaves as future work.
//
// Concurrency follows an epoch-snapshot scheme. The live triangulation and
// hint grid belong to the writer: Insert mutates them under an internal
// mutex (multiple inserting goroutines are therefore serialized, not racy).
// Queries never touch the live structures — every query pins the current
// epoch's immutable snapshot, published through an atomic pointer, so any
// number of goroutines can query a Snapshot's Engine concurrently with
// insertion and never observe a half-applied update. Snapshots are rebuilt
// lazily: the first read after a write publishes one, and every subsequent
// read reuses the published epoch for free. A publish shares the writer's
// append-only point storage outright. The Voronoi adjacency, which
// InsertSite's edge swaps rewire in place, is published as CSR arrays of its
// own (delaunay.Dynamic.Adjacency); points and rings make the epoch a
// MemoryData like a static engine's. Each epoch's arrays are patched from
// the previous epoch's: the rings of the sites inserted since and of their
// neighbors are walked, the rest copied in runs — ≈ 0.26 ms per one-insert
// epoch at 54k sites on a 2-core Xeon @ 2.1 GHz, against ≈ 9 ms for the
// first publish, which walks every ring. Every epoch's queries draw their
// scratch from one pool, so a new epoch starts with the visited table the
// last one warmed.
//
// What only the traditional method reads, an epoch builds on first use,
// once: its R-tree, STR-packed over the epoch's points like a static
// engine's (RTreeIndex) — ≈ 35 ms at 60k sites on the same host. An epoch
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

	// epoch counts accepted inserts; it is bumped (under mu) after the
	// triangulation and the hint grid both reflect the new point, so a reader
	// that observes epoch e and rebuilds under mu sees at least e points.
	epoch atomic.Uint64
	// snap is the most recently published snapshot (nil until first read).
	snap atomic.Pointer[DynamicSnapshot]
	// scratch is the one query-scratch pool every epoch's Engine borrows, so
	// the first query of an epoch finds the table the previous one warmed.
	// Allocated on its own: a pinned snapshot reaches the pool, and must not
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

// Len returns the number of inserted points (as of the current epoch).
func (d *DynamicEngine) Len() int { return int(d.epoch.Load()) }

// Epoch returns the current epoch: the number of accepted inserts.
// Snapshots report the epoch they were pinned at.
func (d *DynamicEngine) Epoch() uint64 { return d.epoch.Load() }

// Point returns the coordinates of an inserted id; see PointOK for its
// concurrency. It panics when id was never returned by Insert — the fence
// sites' ids included.
func (d *DynamicEngine) Point(id int64) geom.Point {
	p, ok := d.PointOK(id)
	if !ok {
		panic(fmt.Sprintf("core: Point(%d): no inserted point has this id", id))
	}
	return p
}

// PointOK returns the coordinates of id and whether id is a user site the
// engine currently holds. Safe to call concurrently with Insert. Ids
// covered by the published snapshot are served lock-free (positions never
// change once assigned); only ids newer than the snapshot fall back to the
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
		d.epoch.Add(1)
	}
	return int64(sid), ins, nil
}

// Snapshot pins the current epoch and returns its immutable view. The
// first Snapshot after a write builds the view (the adjacency patched from
// the previous view's, serialized with writers; the R-tree is packed by the
// view's first Traditional query, not here); repeated Snapshots between
// writes return the same published view with no copying or locking. The
// returned snapshot is safe for concurrent use and stays valid — and
// unchanged — forever.
func (d *DynamicEngine) Snapshot() *DynamicSnapshot {
	// Fast path: the published snapshot is current. Loading the epoch
	// first makes the check conservative — a concurrent insert can only
	// force an unnecessary rebuild, never return a snapshot older than an
	// insert that completed before this call.
	e := d.epoch.Load()
	if s := d.snap.Load(); s != nil && s.epoch == e {
		return s
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	e = d.epoch.Load() // stable: writers bump it only under mu
	if s := d.snap.Load(); s != nil && s.epoch == e {
		return s
	}
	var buildStart time.Time
	if d.publishHist != nil {
		buildStart = time.Now()
	}
	// The adjacency is patched from the epoch this one replaces.
	var prevOff, prevNbrs []int32
	if prev := d.snap.Load(); prev != nil {
		prevOff, prevNbrs = prev.data.nbrOff, prev.data.nbrs
	}
	off, nbrs := d.dt.Adjacency(prevOff, prevNbrs)
	pts, u := d.dt.Points(), d.dt.Universe()
	data := &MemoryData{
		pts:    pts,
		first:  delaunay.FirstSiteID,
		last:   len(pts),
		nbrOff: off,
		nbrs:   nbrs,
		clip:   u.Expand(u.Width() + u.Height() + 1),
		hint:   d.hint.frozen(),
	}
	s := &DynamicSnapshot{
		epoch: e,
		data:  data,
		eng:   newEngine(&RTreeIndex{pts: data.pts, first: data.first, fanout: rtree.DefaultMaxEntries}, data, d.scratch),
	}
	d.snap.Store(s)
	d.lastPublish.Store(time.Now().UnixNano())
	if d.publishHist != nil {
		d.publishHist.Observe(time.Since(buildStart))
	}
	return s
}

// DynamicSnapshot is an immutable, epoch-pinned view of a DynamicEngine:
// every query on it sees exactly the points inserted before it was taken,
// no matter how many inserts have happened since. Snapshots are safe for
// concurrent use from any number of goroutines.
type DynamicSnapshot struct {
	epoch uint64
	data  *MemoryData
	eng   *Engine
}

// Epoch returns the epoch the snapshot was pinned at (the number of
// inserts it reflects).
func (s *DynamicSnapshot) Epoch() uint64 { return s.epoch }

// Point returns the coordinates of an inserted id present in the snapshot.
// It panics when there is none — the fence sites' ids included.
func (s *DynamicSnapshot) Point(id int64) geom.Point {
	p, ok := s.PointOK(id)
	if !ok {
		panic(fmt.Sprintf("core: Point(%d): no point of the snapshot has this id", id))
	}
	return p
}

// PointOK returns the coordinates of id and whether id is a user site
// present in the snapshot (fence sites and out-of-range ids report false).
func (s *DynamicSnapshot) PointOK(id int64) (geom.Point, bool) { return s.data.PositionOK(id) }

// Engine returns the snapshot's immutable engine: every query against the
// pinned epoch runs on it (ErrNoData while the snapshot is empty). Refusing
// a region outside the universe is the public Querier body's job.
func (s *DynamicSnapshot) Engine() *Engine { return s.eng }
