package vaq_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	vaq "repro"
)

// TestEngineLazyIndexPackedByFirstTraditional checks that no engine packs an
// R-tree it has not been asked to read: over a plain engine, a store-backed
// one and four shards, every default query — Query under each of the other
// methods, QueryAll, Count and Each — leaves every shard's tree unpacked,
// and one Traditional query packs exactly the shards it reaches, answering
// what the scan answers.
func TestEngineLazyIndexPackedByFirstTraditional(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(58))
	bounds := vaq.UnitSquare()
	pts := vaq.UniformPoints(rng, 4000, bounds)
	regions := []vaq.Region{
		vaq.PolygonRegion(vaq.RandomQueryPolygon(rng, 10, 0.05, bounds)),
		vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.5, 0.5), 0.2)),
	}
	corner := vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.1, 0.1), 0.05))
	for _, tc := range []struct {
		name  string
		build func() (*vaq.Engine, error)
	}{
		{"plain", func() (*vaq.Engine, error) { return vaq.NewEngine(pts, bounds) }},
		{"store", func() (*vaq.Engine, error) {
			return vaq.NewEngine(pts, bounds, vaq.WithStore(vaq.StoreConfig{PageSize: 4096, PoolPages: 64}))
		}},
		{"shards", func() (*vaq.Engine, error) { return vaq.NewShardedEngine(pts, bounds, vaq.WithShards(4)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			unpacked := func(after string) {
				t.Helper()
				if packed := vaq.PackedShards(eng); slices.Contains(packed, true) {
					t.Fatalf("after %s: shards packed %v, want none", after, packed)
				}
			}
			unpacked("construction")
			for _, r := range regions {
				for _, m := range []vaq.Method{vaq.VoronoiBFS, vaq.VoronoiBFSStrict, vaq.BruteForce} {
					if _, err := eng.Query(ctx, r, vaq.UsingMethod(m)); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := eng.Query(ctx, r); err != nil {
					t.Fatal(err)
				}
				if _, err := vaq.Count(ctx, eng, r); err != nil {
					t.Fatal(err)
				}
				if err := eng.Each(ctx, r, func(int64, vaq.Point) bool { return true }); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := eng.QueryAll(ctx, regions); err != nil {
				t.Fatal(err)
			}
			unpacked("every default query")

			want := make([]bool, eng.NumShards())
			for si := range want {
				want[si] = eng.ShardBounds(si).Intersects(corner.Bounds())
			}
			if !slices.Contains(want, true) || (len(want) > 1 && !slices.Contains(want, false)) {
				t.Fatalf("the corner region reaches shards %v: want some, and on several shards not all", want)
			}
			got, err := eng.Query(ctx, corner, vaq.UsingMethod(vaq.Traditional))
			if err != nil {
				t.Fatal(err)
			}
			scan, err := eng.Query(ctx, corner, vaq.UsingMethod(vaq.BruteForce))
			if err != nil || len(scan) == 0 || !slices.Equal(got, scan) {
				t.Fatalf("Traditional: %d ids, scan %d (err %v)", len(got), len(scan), err)
			}
			if packed := vaq.PackedShards(eng); !slices.Equal(packed, want) {
				t.Fatalf("one Traditional query packed shards %v, want the %v it reaches", packed, want)
			}
		})
	}
}
