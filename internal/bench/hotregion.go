package bench

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	vaq "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// HotRegionConfig parameterizes the skewed-traffic experiment: one
// dataset, a pool of hot query regions, and a zipfian query stream over
// the pool replayed against an uncached engine and a result-cached one,
// sweeping skew × cache size.
type HotRegionConfig struct {
	// DataSize is the point count (default 1E5).
	DataSize int
	// Queries is the stream length per configuration (default 2000).
	Queries int
	// Regions is the hot-region pool size (default 64).
	Regions int
	// Clusters is the number of hot spots the pool gathers around
	// (default 4).
	Clusters int
	// Vertices per query polygon (default 10).
	Vertices int
	// QuerySize is the query MBR area fraction (default 0.01).
	QuerySize float64
	// Skews lists the zipfian s-parameters to sweep (default 0.8, 1.1,
	// 1.4; values at or below 1 clamp just above 1, see
	// workload.ZipfPicker).
	Skews []float64
	// CacheSizes lists the result-cache capacities to sweep (default 8,
	// 64, 256 — below, at, and above the default pool size).
	CacheSizes []int
	// Seed makes runs reproducible.
	Seed int64
	// Store, when non-nil, backs both engines' records with a paged store
	// so the replay exercises the buffer pool (page reads, hits,
	// evictions) instead of staying in-memory. areabench sets it in
	// -metricsaddr mode so the scraped registry shows live buffer-pool
	// counters.
	Store *core.StoreConfig
	// Metrics, when non-nil, instruments both engines (WithMetrics) for
	// live scraping. Measured numbers then include the instrumentation
	// overhead.
	Metrics *vaq.MetricsRegistry
}

func (c HotRegionConfig) withDefaults() HotRegionConfig {
	if c.DataSize <= 0 {
		c.DataSize = 1e5
	}
	if c.Queries <= 0 {
		c.Queries = 2000
	}
	if c.Regions <= 0 {
		c.Regions = 64
	}
	if c.Clusters <= 0 {
		c.Clusters = 4
	}
	if c.Vertices < 3 {
		c.Vertices = 10
	}
	if c.QuerySize <= 0 || c.QuerySize > 1 {
		c.QuerySize = 0.01
	}
	if len(c.Skews) == 0 {
		c.Skews = []float64{0.8, 1.1, 1.4}
	}
	if len(c.CacheSizes) == 0 {
		c.CacheSizes = []int{8, 64, 256}
	}
	if c.Seed == 0 {
		c.Seed = 20200420
	}
	return c
}

// HotRegionRow is one (skew, cache size) measurement: the same zipfian
// query stream replayed without and with the result cache.
type HotRegionRow struct {
	Skew        float64
	CacheSize   int
	UncachedQPS float64
	CachedQPS   float64
	Speedup     float64 // CachedQPS / UncachedQPS
	HitRate     float64
	// Per-query latency percentiles of each replay, in nanoseconds.
	UncachedP50Ns float64
	UncachedP99Ns float64
	CachedP50Ns   float64
	CachedP99Ns   float64
}

// RunHotRegion measures result-cache effectiveness under zipfian
// hot-region traffic. Per skew, one query stream is drawn and replayed on
// an uncached engine (the per-skew baseline) and, per cache size, on a
// cached engine; every replayed answer, cached or not, is compared id for
// id with the region's warm-up answer.
func RunHotRegion(cfg HotRegionConfig) ([]HotRegionRow, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	bounds := vaq.UnitSquare()
	pts := workload.UniformPoints(rng, cfg.DataSize, bounds)

	var baseOpts []vaq.Option
	if cfg.Store != nil {
		baseOpts = append(baseOpts, vaq.WithStore(*cfg.Store))
	}
	if cfg.Metrics != nil {
		baseOpts = append(baseOpts, vaq.WithMetrics(cfg.Metrics))
	}
	uncached, err := vaq.NewEngine(pts, bounds, baseOpts...)
	if err != nil {
		return nil, fmt.Errorf("bench: building uncached engine (n=%d): %w", cfg.DataSize, err)
	}
	rc := vaq.NewResultCache(0) // sized per row below
	cached, err := vaq.NewEngine(pts, bounds, append(baseOpts, vaq.WithResultCache(rc))...)
	if err != nil {
		return nil, fmt.Errorf("bench: building cached engine: %w", err)
	}

	pool := workload.HotRegionPool(rng, workload.HotRegionConfig{
		Regions:   cfg.Regions,
		Clusters:  cfg.Clusters,
		Vertices:  cfg.Vertices,
		QuerySize: cfg.QuerySize,
	}, bounds)
	regions := make([]vaq.Region, len(pool))
	for i, pg := range pool {
		regions[i] = vaq.PolygonRegion(pg)
	}

	// Warm both engines (and pin per-region answers for verification)
	// outside the timed loops.
	ctx := context.Background()
	want := make([][]int64, len(regions))
	for i, region := range regions {
		ids, err := uncached.Query(ctx, region)
		if err != nil {
			return nil, fmt.Errorf("bench: warmup region %d: %w", i, err)
		}
		want[i] = ids
		if _, err := cached.Query(ctx, region); err != nil {
			return nil, fmt.Errorf("bench: warmup region %d (cached): %w", i, err)
		}
	}

	var rows []HotRegionRow
	buf := make([]int64, 0, 4096)
	lat := obs.NewHistogram()
	replay := func(eng *vaq.Engine, stream []int) (time.Duration, obs.HistogramSnapshot, error) {
		lat.Reset()
		start := time.Now()
		for _, ri := range stream {
			t0 := time.Now()
			ids, err := eng.Query(ctx, regions[ri], vaq.Reuse(buf))
			if err != nil {
				return 0, obs.HistogramSnapshot{}, err
			}
			lat.Observe(time.Since(t0))
			if !slices.Equal(ids, want[ri]) {
				return 0, obs.HistogramSnapshot{}, fmt.Errorf("region %d returned %d ids that differ from its %d warm-up ids", ri, len(ids), len(want[ri]))
			}
		}
		return time.Since(start), lat.Snapshot(), nil
	}

	for _, skew := range cfg.Skews {
		// One stream per skew, shared by the baseline and every cache size.
		pick := workload.ZipfPicker(rand.New(rand.NewSource(cfg.Seed+int64(skew*1000))), skew, len(regions))
		stream := make([]int, cfg.Queries)
		for i := range stream {
			stream[i] = pick()
		}

		baseWall, baseLat, err := replay(uncached, stream)
		if err != nil {
			return nil, fmt.Errorf("bench: uncached replay (s=%.2f): %w", skew, err)
		}
		baseQPS := float64(cfg.Queries) / baseWall.Seconds()

		for _, size := range cfg.CacheSizes {
			rc.Resize(size)
			rc.Reset()
			wall, cachedLat, err := replay(cached, stream)
			if err != nil {
				return nil, fmt.Errorf("bench: cached replay (s=%.2f, cache=%d): %w", skew, size, err)
			}
			qps := float64(cfg.Queries) / wall.Seconds()
			rows = append(rows, HotRegionRow{
				Skew:          skew,
				CacheSize:     size,
				UncachedQPS:   baseQPS,
				CachedQPS:     qps,
				Speedup:       qps / baseQPS,
				HitRate:       rc.Stats().HitRate(),
				UncachedP50Ns: baseLat.Quantile(0.50),
				UncachedP99Ns: baseLat.Quantile(0.99),
				CachedP50Ns:   cachedLat.Quantile(0.50),
				CachedP99Ns:   cachedLat.Quantile(0.99),
			})
		}
	}
	return rows, nil
}

// FormatHotRegion renders the sweep as an aligned text table.
func FormatHotRegion(rows []HotRegionRow) string {
	var b strings.Builder
	b.WriteString("Zipf s | Cache | Uncached q/s | Cached q/s | Speedup | Hit rate\n")
	b.WriteString(strings.Repeat("-", 66) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6.2f | %5d | %12.0f | %10.0f | %6.2fx | %7.1f%%\n",
			r.Skew, r.CacheSize, r.UncachedQPS, r.CachedQPS, r.Speedup, r.HitRate*100)
	}
	return b.String()
}
