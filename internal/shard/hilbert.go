package shard

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/hilbert"
)

// BuildFunc constructs the engine of one shard over its local points
// (local id i is pts[i]). bounds is the universe rectangle, shared by all
// shards so per-shard Voronoi cells clip identically to the unsharded
// engine's. The function must be safe to call concurrently for distinct
// shards; shard is the shard's index for builders that record per-shard
// state (e.g. the record store) on the side.
type BuildFunc func(shard int, pts []geom.Point, bounds geom.Rect) (*core.Engine, error)

// Config parameterizes New.
type Config struct {
	// Shards is the requested shard count, clamped to [1, len(points)].
	Shards int
	// Parallelism bounds the worker pool used for shard construction and
	// query scatter; <= 0 means runtime.GOMAXPROCS.
	Parallelism int
	// Build constructs one shard's engine; required.
	Build BuildFunc
	// Metrics, when non-nil, instruments the scatter-gather query path
	// (see Metrics). Nil disables instrumentation at one pointer
	// comparison per query.
	Metrics *Metrics
}

// localShard is the in-process Partition, owning a full core.Engine — its
// own spatial index, Voronoi topology and (when the builder attaches one)
// record store. New builds one per contiguous run of the dataset's Hilbert
// order (package hilbert), so a compact tile of the plane with a tight
// bounding rectangle; OverEngine wraps a dynamic epoch's engine.
type localShard struct {
	index  int
	eng    *core.Engine
	bounds geom.Rect
	global []int32 // local id -> global id, ascending; nil when they are equal
}

func (s *localShard) Bounds() geom.Rect { return s.bounds }
func (s *localShard) Len() int          { return s.eng.Data().Len() }
func (s *localShard) String() string    { return fmt.Sprintf("shard %d", s.index) }

func (s *localShard) Query(ctx context.Context, region core.Region, spec core.QuerySpec) ([]int64, core.Stats, error) {
	ids, st, err := s.eng.QueryRegionSpec(ctx, region, spec)
	if s.global != nil {
		for i, id := range ids { // the engine's own slice, or spec.Dest
			ids[i] = int64(s.global[id])
		}
	}
	return ids, st, err
}

func (s *localShard) Each(ctx context.Context, region core.Region, spec core.QuerySpec, yield func(id int64, pos geom.Point) bool) (core.Stats, error) {
	if s.global == nil {
		return s.eng.EachRegion(ctx, region, spec, yield)
	}
	return s.eng.EachRegion(ctx, region, spec, func(id int64, pos geom.Point) bool {
		return yield(int64(s.global[id]), pos)
	})
}

// New partitions points into cfg.Shards Hilbert-contiguous shards, builds
// every shard's engine (in parallel on the scatter pool) and returns the
// fail-fast kernel over them. bounds must contain every point. Global ids
// are the indexes of points, exactly as in an unsharded engine over the
// same slice, and results are identical for every shard count. One shard
// is the whole slice as it stands: no curve keys, no sort, no id map.
// The kernel keeps no copy of points; Build gets them, or a shard's run of
// them, and its engine keeps what it needs.
func New(points []geom.Point, bounds geom.Rect, cfg Config) (*Engine, error) {
	if cfg.Build == nil {
		return nil, fmt.Errorf("shard: Config.Build is required")
	}
	if len(points) == 0 {
		return nil, core.ErrNoData
	}

	var shards []Partition
	var shardPts [][]geom.Point // local id -> position, for Build only
	if cfg.Shards <= 1 || len(points) == 1 {
		shards = []Partition{&localShard{bounds: geom.RectFromPoints(points...)}}
		shardPts = [][]geom.Point{points}
	} else {
		runs := hilbert.Runs(points, bounds, cfg.Shards)
		shards = make([]Partition, len(runs))
		shardPts = make([][]geom.Point, len(runs))
		for si, run := range runs {
			// Ascending global order inside the shard keeps the remapping
			// stable across shard counts and makes merged output ordering
			// independent of the Hilbert traversal direction. The run,
			// sorted in place, is the id map.
			slices.Sort(run)
			pts := make([]geom.Point, len(run))
			for i, id := range run {
				pts[i] = points[id]
			}
			global := run
			if int(run[len(run)-1]) == len(run)-1 {
				global = nil // the run is 0..n-1: local ids are global
			}
			shards[si] = &localShard{index: si, bounds: geom.RectFromPoints(pts...), global: global}
			shardPts[si] = pts
		}
	}

	err := exec.Run(context.Background(), len(shards),
		exec.Options{NumWorkers: cfg.Parallelism},
		func(_, si int) error {
			eng, err := cfg.Build(si, shardPts[si], bounds)
			if err != nil {
				return fmt.Errorf("building shard %d (%d points): %w", si, len(shardPts[si]), err)
			}
			shards[si].(*localShard).eng = eng
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}

	return Over(shards, bounds, cfg.Parallelism, cfg.Metrics), nil
}

// OverEngine returns the kernel over one engine whose ids are global — a
// dynamic epoch's. Its one partition is keyed by universe, so nothing the
// caller admits is pruned, and no index is read to key it.
func OverEngine(eng *core.Engine, universe geom.Rect, parallelism int, met *Metrics) *Engine {
	return Over([]Partition{&localShard{eng: eng, bounds: universe}}, universe, parallelism, met)
}

// ShardEngine returns the engine of shard si of an engine built by New,
// for instrumentation.
func (e *Engine) ShardEngine(si int) *core.Engine { return e.parts[si].(*localShard).eng }
