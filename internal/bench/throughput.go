package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/shard"
	"repro/internal/workload"
)

// ThroughputConfig parameterizes a batch-throughput sweep: one dataset,
// one fixed query workload, the worker-pool size swept.
type ThroughputConfig struct {
	// DataSize is the point count (default 1E5, the paper's base size).
	DataSize int
	// Queries is the batch length (default 512).
	Queries int
	// QuerySize is the query MBR area fraction (default 0.01).
	QuerySize float64
	// Vertices per query polygon (default 10).
	Vertices int
	// Parallelism lists the worker-pool sizes to sweep (default 1,2,4,8).
	Parallelism []int
	// Method to execute. The zero value (which is core.Traditional) is
	// replaced by the paper's VoronoiBFS; pass another method explicitly
	// to override.
	Method core.Method
	// Seed makes runs reproducible.
	Seed int64
}

func (c ThroughputConfig) withDefaults() ThroughputConfig {
	if c.DataSize <= 0 {
		c.DataSize = 1e5
	}
	if c.Queries <= 0 {
		c.Queries = 512
	}
	if c.QuerySize <= 0 {
		c.QuerySize = 0.01
	}
	if c.Vertices < 3 {
		c.Vertices = 10
	}
	if len(c.Parallelism) == 0 {
		c.Parallelism = []int{1, 2, 4, 8}
	}
	if c.Method == core.Traditional {
		c.Method = core.VoronoiBFS
	}
	if c.Seed == 0 {
		c.Seed = 20200420
	}
	return c
}

// ThroughputRow is one pool size's measurement.
type ThroughputRow struct {
	Workers int
	Wall    time.Duration // wall-clock time for the whole batch
	QPS     float64       // queries per second of wall-clock
	Speedup float64       // relative to the Workers == 1 (or first) row
}

// RunThroughput measures wall-clock batch throughput of the same query
// batch at each requested pool size, verifying every run returns the
// result set of the first.
func RunThroughput(cfg ThroughputConfig) ([]ThroughputRow, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	bounds := geom.NewRect(0, 0, 1, 1)
	pts := workload.UniformPoints(rng, cfg.DataSize, bounds)
	data, err := core.NewMemoryData(pts, bounds)
	if err != nil {
		return nil, fmt.Errorf("bench: building dataset (n=%d): %w", cfg.DataSize, err)
	}
	eng := core.NewEngine(core.NewRTreeIndex(pts, 16), data)

	regions := make([]core.Region, cfg.Queries)
	for i := range regions {
		regions[i] = core.PolygonRegion(workload.RandomPolygon(rng, workload.PolygonConfig{
			Vertices:  cfg.Vertices,
			QuerySize: cfg.QuerySize,
		}, bounds))
	}

	var baseline [][]int64
	var baseWall time.Duration
	rows := make([]ThroughputRow, 0, len(cfg.Parallelism))
	for _, workers := range cfg.Parallelism {
		if workers <= 0 { // report the pool size the executor will use
			workers = runtime.GOMAXPROCS(0)
		}
		start := time.Now()
		out, _, err := exec.QueryBatch(context.Background(), eng, regions,
			core.QuerySpec{Method: cfg.Method}, exec.Options{NumWorkers: workers})
		wall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("bench: throughput batch (workers=%d): %w", workers, err)
		}
		if baseline == nil {
			baseline, baseWall = out, wall
		} else if err := sameResults(baseline, out); err != nil {
			return nil, fmt.Errorf("bench: workers=%d diverged from baseline: %w", workers, err)
		}
		rows = append(rows, ThroughputRow{
			Workers: workers,
			Wall:    wall,
			QPS:     float64(cfg.Queries) / wall.Seconds(),
			Speedup: baseWall.Seconds() / wall.Seconds(),
		})
	}
	return rows, nil
}

// ShardedThroughputConfig parameterizes a sharded-vs-single batch
// throughput comparison: one dataset (optionally store-backed), one fixed
// query workload, the shard count swept against an unsharded baseline.
type ShardedThroughputConfig struct {
	// DataSize is the point count (default 1E5).
	DataSize int
	// Queries is the batch length (default 256).
	Queries int
	// QuerySize is the query MBR area fraction (default 0.01).
	QuerySize float64
	// Vertices per query polygon (default 10).
	Vertices int
	// Shards lists the shard counts to sweep (default 1,2,4,8).
	Shards []int
	// Workers is the scatter/batch pool size (default GOMAXPROCS).
	Workers int
	// Method to execute. The zero value (which is core.Traditional) is
	// replaced by the paper's VoronoiBFS; pass another method explicitly
	// to override.
	Method core.Method
	// Store, when non-nil, backs every engine (the single baseline and
	// each shard) with a paged record store — the regime where sharding
	// also splits the buffer-pool lock.
	Store *core.StoreConfig
	// Seed makes runs reproducible.
	Seed int64
}

func (c ShardedThroughputConfig) withDefaults() ShardedThroughputConfig {
	if c.DataSize <= 0 {
		c.DataSize = 1e5
	}
	if c.Queries <= 0 {
		c.Queries = 256
	}
	if c.QuerySize <= 0 {
		c.QuerySize = 0.01
	}
	if c.Vertices < 3 {
		c.Vertices = 10
	}
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 2, 4, 8}
	}
	if c.Method == core.Traditional {
		c.Method = core.VoronoiBFS
	}
	if c.Seed == 0 {
		c.Seed = 20200420
	}
	return c
}

// ShardedThroughputRow is one configuration's measurement. The first row
// is always the unsharded single-engine baseline (Shards == 0).
type ShardedThroughputRow struct {
	Shards  int // 0 = single unsharded engine
	Wall    time.Duration
	QPS     float64
	Speedup float64 // relative to the single-engine row
}

// shardedBuild returns the shard.BuildFunc matching the config: the
// paper's STR R-tree over in-memory or store-backed records.
func (c ShardedThroughputConfig) shardedBuild() shard.BuildFunc {
	return func(_ int, pts []geom.Point, bounds geom.Rect) (*core.Engine, error) {
		var (
			data core.DataAccess
			err  error
		)
		if c.Store != nil {
			data, err = core.NewStoreData(pts, bounds, *c.Store)
		} else {
			data, err = core.NewMemoryData(pts, bounds)
		}
		if err != nil {
			return nil, err
		}
		return core.NewEngine(core.NewRTreeIndex(pts, 16), data), nil
	}
}

// RunShardedThroughput measures wall-clock throughput of the same query
// batch on one unsharded engine (the baseline row) and on sharded engines
// at each requested shard count, verifying every run returns the baseline
// result sets.
func RunShardedThroughput(cfg ShardedThroughputConfig) ([]ShardedThroughputRow, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	bounds := geom.NewRect(0, 0, 1, 1)
	pts := workload.UniformPoints(rng, cfg.DataSize, bounds)
	build := cfg.shardedBuild()

	regions := make([]core.Region, cfg.Queries)
	for i := range regions {
		regions[i] = core.PolygonRegion(workload.RandomPolygon(rng, workload.PolygonConfig{
			Vertices:  cfg.Vertices,
			QuerySize: cfg.QuerySize,
		}, bounds))
	}

	// One untimed universe-covering query per engine warms the pooled query
	// scratch (in every shard) so rows measure steady state.
	corners := bounds.Corners()
	warm := core.PolygonRegion(geom.MustPolygon(corners[:]))

	single, err := build(0, pts, bounds)
	if err != nil {
		return nil, fmt.Errorf("bench: building single engine (n=%d): %w", cfg.DataSize, err)
	}
	ctx := context.Background()
	spec := core.QuerySpec{Method: cfg.Method}
	if _, _, err := single.QueryRegionSpec(ctx, warm, spec); err != nil {
		return nil, fmt.Errorf("bench: single-engine warmup: %w", err)
	}
	start := time.Now()
	baseline, _, err := exec.QueryBatch(ctx, single, regions, spec, exec.Options{NumWorkers: cfg.Workers})
	baseWall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("bench: single-engine batch: %w", err)
	}
	rows := []ShardedThroughputRow{{
		Shards:  0,
		Wall:    baseWall,
		QPS:     float64(cfg.Queries) / baseWall.Seconds(),
		Speedup: 1,
	}}

	for _, shards := range cfg.Shards {
		se, err := shard.New(pts, bounds, shard.Config{
			Shards:      shards,
			Parallelism: cfg.Workers,
			Build:       build,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: building sharded engine (shards=%d): %w", shards, err)
		}
		if _, _, err := se.QueryRegionSpec(ctx, warm, spec); err != nil {
			return nil, fmt.Errorf("bench: sharded warmup (shards=%d): %w", shards, err)
		}
		start := time.Now()
		out, _, err := se.QueryRegionsSpec(ctx, regions, spec)
		wall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("bench: sharded batch (shards=%d): %w", shards, err)
		}
		if err := sameResults(baseline, out); err != nil {
			return nil, fmt.Errorf("bench: shards=%d diverged from single engine: %w", shards, err)
		}
		rows = append(rows, ShardedThroughputRow{
			Shards:  shards,
			Wall:    wall,
			QPS:     float64(cfg.Queries) / wall.Seconds(),
			Speedup: baseWall.Seconds() / wall.Seconds(),
		})
	}
	return rows, nil
}

// FormatShardedThroughput renders the comparison as an aligned text table.
func FormatShardedThroughput(rows []ShardedThroughputRow) string {
	var b strings.Builder
	b.WriteString(" Shards | Batch wall time | Queries/s | vs single\n")
	b.WriteString(strings.Repeat("-", 54) + "\n")
	for _, r := range rows {
		label := "single"
		if r.Shards > 0 {
			label = fmt.Sprintf("%d", r.Shards)
		}
		fmt.Fprintf(&b, "%7s | %15v | %9.0f | %8.2fx\n",
			label, r.Wall.Round(time.Microsecond), r.QPS, r.Speedup)
	}
	return b.String()
}

// sameResults compares two batch outputs query-for-query as sets.
func sameResults(a, b [][]int64) error {
	if len(a) != len(b) {
		return fmt.Errorf("batch lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("query %d: %d vs %d ids", i, len(a[i]), len(b[i]))
		}
		seen := make(map[int64]bool, len(a[i]))
		for _, id := range a[i] {
			seen[id] = true
		}
		for _, id := range b[i] {
			if !seen[id] {
				return fmt.Errorf("query %d: id %d missing from baseline", i, id)
			}
		}
	}
	return nil
}

// FormatThroughput renders the sweep as an aligned text table.
func FormatThroughput(rows []ThroughputRow) string {
	var b strings.Builder
	b.WriteString("Workers | Batch wall time | Queries/s | Speedup\n")
	b.WriteString(strings.Repeat("-", 52) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%7d | %15v | %9.0f | %6.2fx\n",
			r.Workers, r.Wall.Round(time.Microsecond), r.QPS, r.Speedup)
	}
	return b.String()
}
