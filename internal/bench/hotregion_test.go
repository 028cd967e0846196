package bench

import "testing"

func TestRunHotRegionSmallSweep(t *testing.T) {
	cfg := HotRegionConfig{
		DataSize:   3000,
		Queries:    300,
		Regions:    16,
		Skews:      []float64{1.1, 1.4},
		CacheSizes: []int{2, 4096},
		Seed:       7,
	}
	// RunHotRegion compares every replayed answer, cached or not, with the
	// region's warm-up ids and fails on the first difference.
	rows, err := RunHotRegion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Skews)*len(cfg.CacheSizes) {
		t.Fatalf("rows = %d, want %d", len(rows), len(cfg.Skews)*len(cfg.CacheSizes))
	}
	for i, r := range rows {
		skew, size := cfg.Skews[i/len(cfg.CacheSizes)], cfg.CacheSizes[i%len(cfg.CacheSizes)]
		if r.Skew != skew || r.CacheSize != size {
			t.Errorf("row %d is (s=%v, cache=%d), want (s=%v, cache=%d)", i, r.Skew, r.CacheSize, skew, size)
		}
		if r.UncachedQPS <= 0 || r.CachedQPS <= 0 {
			t.Errorf("row %d: q/s uncached %v, cached %v", i, r.UncachedQPS, r.CachedQPS)
		}
		if r.HitRate < 0 || r.HitRate > 1 {
			t.Errorf("row %d: hit rate %v", i, r.HitRate)
		}
	}
	for i := 0; i < len(rows); i += 2 {
		small, whole := rows[i], rows[i+1]
		if small.HitRate >= whole.HitRate {
			t.Errorf("s=%v: hit rate %v with %d entries, %v with %d: should rise with cache size",
				small.Skew, small.HitRate, small.CacheSize, whole.HitRate, whole.CacheSize)
		}
		// A cache whose every lock shard could hold the whole pool misses
		// each distinct region once.
		if floor := 1 - float64(cfg.Regions)/float64(cfg.Queries); whole.HitRate < floor {
			t.Errorf("s=%v: hit rate %v with the whole pool cached, want >= %v", whole.Skew, whole.HitRate, floor)
		}
	}
}
