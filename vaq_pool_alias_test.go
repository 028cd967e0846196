package vaq_test

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	vaq "repro"
)

// TestResultsSurvivePooledBuffers pins that no answer shares memory with a
// pooled buffer: a scatter answers each (region, shard) pair into a buffer
// the kernel takes back after the merge, and a server answers
// /v1/query into an id slice it takes back after the response. Results of
// QueryAll and Query on an 8-shard engine and on a 2-backend RemoteEngine
// are copied, other regions then run through the same pools on three
// goroutines at once, and every result must equal its copy and a single
// engine's answer; so must each goroutine's sole-survivor answers, held
// in its own Reuse buffers while it queries on. Run it under -race too.
func TestResultsSurvivePooledBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	pts := vaq.UniformPoints(rng, 4000, vaq.UnitSquare())
	sharded, err := vaq.NewShardedEngine(pts, vaq.UnitSquare(), vaq.WithShards(8), vaq.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	f := startFixture(t, pts, 1700)
	regions := make([]vaq.Region, 24)
	for i := range regions {
		if i%2 == 0 {
			c := vaq.Pt(0.15+0.7*rng.Float64(), 0.15+0.7*rng.Float64())
			regions[i] = vaq.CircleRegion(vaq.NewCircle(c, 0.03+0.1*rng.Float64()))
		} else {
			regions[i] = vaq.PolygonRegion(vaq.RandomQueryPolygon(rng, 10, 0.01+0.04*rng.Float64(), vaq.UnitSquare()))
		}
	}
	survivors := func(r vaq.Region) int {
		n := 0
		for si := range sharded.NumShards() {
			if sharded.ShardBounds(si).Intersects(r.Bounds()) {
				n++
			}
		}
		return n
	}
	// A batch region that meets one shard is merged from one pooled
	// buffer: the case a merge that handed its only part through got wrong.
	var sole []vaq.Region
	for si := range sharded.NumShards() {
		if r := vaq.CircleRegion(vaq.NewCircle(sharded.ShardBounds(si).Center(), 0.02)); survivors(r) == 1 {
			sole = append(sole, r)
		}
	}
	regions = append(sole, regions...)
	first, later := regions[:len(regions)-16], regions[len(regions)-16:]
	if spread := slices.IndexFunc(first, func(r vaq.Region) bool { return survivors(r) > 1 }); len(sole) == 0 || spread < 0 {
		t.Fatalf("no region meets one shard, or none several; the test exercises nothing")
	}
	ctx := context.Background()
	wantLater := make([][]int64, len(later))
	for i, r := range later {
		if wantLater[i], err = f.local.Query(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	wantSole := make([][]int64, len(sole))
	for i, r := range sole {
		if wantSole[i], err = f.local.Query(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	// Each backend of the remote engine holds a uniform sample of the
	// square, so every region meets both: each of its queries scatters.
	for name, q := range map[string]vaq.Querier{"sharded": sharded, "remote": f.dial(t)} {
		t.Run(name, func(t *testing.T) {
			batch, err := q.QueryAll(ctx, first)
			if err != nil {
				t.Fatal(err)
			}
			held, asked := slices.Clone(batch), slices.Clone(first)
			kept := make([][]int64, len(held))
			for i, ids := range held {
				kept[i] = slices.Clone(ids)
			}
			// A one-region batch is one task per survivor on the remote
			// engine too, which answers a larger batch in one round trip
			// per backend.
			for _, r := range first {
				one, err := q.QueryAll(ctx, []vaq.Region{r})
				if err != nil {
					t.Fatal(err)
				}
				ids, err := q.Query(ctx, r)
				if err != nil {
					t.Fatal(err)
				}
				held, asked = append(held, one[0], ids), append(asked, r, r)
				kept = append(kept, slices.Clone(one[0]), slices.Clone(ids))
			}
			// The later queries run on three goroutines at once, so the
			// pools also hand buffers across concurrent queries; each
			// answer is checked as it arrives. Each goroutine first asks
			// every sole-survivor region into a Reuse buffer of its own —
			// on the sharded engine a one-task scatter run on the calling
			// goroutine — and checks those answers after all its queries.
			var wg sync.WaitGroup
			for range 3 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					reused := make([][]int64, len(sole))
					for i, r := range sole {
						ids, err := q.Query(ctx, r, vaq.Reuse(make([]int64, 0, 64)))
						if err != nil {
							t.Error(err)
							return
						}
						reused[i] = ids
					}
					defer func() {
						for i, ids := range reused {
							if !slices.Equal(ids, wantSole[i]) {
								t.Errorf("sole-survivor region %d: the Reuse answer changed or differs from the single engine's %d ids", i, len(wantSole[i]))
							}
						}
					}()
					batch, err := q.QueryAll(ctx, later)
					if err != nil {
						t.Error(err)
						return
					}
					for i, r := range later {
						ids, err := q.Query(ctx, r)
						if err != nil {
							t.Error(err)
							return
						}
						one, err := q.QueryAll(ctx, []vaq.Region{r})
						if err != nil {
							t.Error(err)
							return
						}
						if want := wantLater[i]; !slices.Equal(batch[i], want) || !slices.Equal(ids, want) || !slices.Equal(one[0], want) {
							t.Errorf("later region %d: the answers differ from the single engine's %d ids", i, len(want))
						}
					}
				}()
			}
			wg.Wait()
			for i, ids := range held {
				if !slices.Equal(ids, kept[i]) {
					t.Fatalf("result %d (%d ids) changed when later queries reused the pools", i, len(ids))
				}
				want, err := f.local.Query(ctx, asked[i])
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(ids, want) {
					t.Fatalf("result %d: %d ids, the single engine answers %d", i, len(ids), len(want))
				}
			}
		})
	}
}
