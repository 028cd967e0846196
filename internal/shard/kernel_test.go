package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/workload"
)

// fakePart is an in-memory Partition: a brute-force scan over its points,
// global id = off + index, pruned by their MBR. It counts the calls it
// receives and fails every one of them when err is set.
type fakePart struct {
	pts   []geom.Point
	off   int64
	err   error
	calls atomic.Int64
}

func (p *fakePart) Bounds() geom.Rect { return geom.RectFromPoints(p.pts...) }
func (p *fakePart) Len() int          { return len(p.pts) }

func (p *fakePart) Each(_ context.Context, region core.Region, spec core.QuerySpec, yield func(int64, geom.Point) bool) (core.Stats, error) {
	p.calls.Add(1)
	var st core.Stats
	if p.err != nil {
		return st, p.err
	}
	for i, pt := range p.pts {
		st.Candidates++
		if !region.ContainsPoint(pt) {
			continue
		}
		st.ResultSize++
		if !yield(p.off+int64(i), pt) {
			break
		}
	}
	return st, nil
}

func (p *fakePart) Query(ctx context.Context, region core.Region, spec core.QuerySpec) ([]int64, core.Stats, error) {
	ids := spec.Dest[:0]
	st, err := p.Each(ctx, region, spec, func(id int64, _ geom.Point) bool {
		if !spec.CountOnly {
			ids = append(ids, id)
		}
		return true
	})
	return ids, st, err
}

// fakeStrips cuts the unit square into n vertical strips of per points
// each, one fakePart per strip, plus the flat point set
// (index = global id).
func fakeStrips(n, per int) ([]*fakePart, []geom.Point) {
	rng := rand.New(rand.NewSource(7))
	var (
		parts []*fakePart
		all   []geom.Point
	)
	for s := 0; s < n; s++ {
		lo, hi := float64(s)/float64(n), float64(s+1)/float64(n)
		p := &fakePart{off: int64(len(all))}
		for i := 0; i < per; i++ {
			p.pts = append(p.pts, geom.Pt(lo+(hi-lo)*rng.Float64(), rng.Float64()))
		}
		parts = append(parts, p)
		all = append(all, p.pts...)
	}
	return parts, all
}

func over(parts []*fakePart) *Engine {
	ps := make([]Partition, len(parts))
	for i, p := range parts {
		ps[i] = p
	}
	return Over(ps, unitBounds(), 2, nil)
}

// bruteInside is the oracle: ascending ids of pts inside region.
func bruteInside(pts []geom.Point, region core.Region) []int64 {
	var out []int64
	for i, pt := range pts {
		if region.ContainsPoint(pt) {
			out = append(out, int64(i))
		}
	}
	return out
}

func rectRegion(minX, minY, maxX, maxY float64) core.Region {
	return core.PolygonRegion(geom.MustPolygon([]geom.Point{
		geom.Pt(minX, minY), geom.Pt(maxX, minY), geom.Pt(maxX, maxY), geom.Pt(minX, maxY),
	}))
}

// TestKernelFailurePolicy drives every query shape with one partition
// down: each one that reaches the partition fails with its error and no
// ids, the failed call is counted in Dropped, and a region the partition is
// pruned from is answered exactly.
func TestKernelFailurePolicy(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("boom")
	wide := rectRegion(0.05, 0.2, 0.95, 0.8)   // reaches all four strips
	left := rectRegion(0.05, 0.2, 0.20, 0.8)   // reaches only strip 0
	right := rectRegion(0.80, 0.2, 0.95, 0.8)  // reaches only strip 3
	center := rectRegion(0.30, 0.2, 0.70, 0.8) // reaches strips 1 and 2

	parts, all := fakeStrips(4, 200)
	parts[0].err = boom
	e := over(parts)
	dropped := func(step string, want uint64) {
		t.Helper()
		if got := e.Dropped(); got != want {
			t.Errorf("%s: Dropped() = %d, want %d", step, got, want)
		}
	}

	for _, region := range []core.Region{wide, left} {
		if ids, _, err := e.QueryRegionSpec(ctx, region, core.QuerySpec{}); !errors.Is(err, boom) || ids != nil {
			t.Fatalf("ids=%v err=%v, want the partition's error", ids, err)
		}
	}
	dropped("two failed queries", 2)

	// A region the dead partition is pruned from is untouched by it.
	ids, _, err := e.QueryRegionSpec(ctx, right, core.QuerySpec{})
	if err != nil || !slices.Equal(ids, bruteInside(all, right)) {
		t.Errorf("pruned-from-failure query: err=%v, %d ids", err, len(ids))
	}
	out, _, err := e.QueryRegionsSpec(ctx, []core.Region{right, center}, core.QuerySpec{})
	if err != nil || !slices.Equal(out[0], bruteInside(all, right)) || !slices.Equal(out[1], bruteInside(all, center)) {
		t.Errorf("pruned-from-failure batch: err=%v", err)
	}
	dropped("healthy queries", 2)

	// A batch with one region reaching the dead partition fails whole.
	if out, _, err := e.QueryRegionsSpec(ctx, []core.Region{wide, right, center}, core.QuerySpec{}); !errors.Is(err, boom) || out != nil {
		t.Errorf("batch: %d results, err = %v, want boom", len(out), err)
	}
	dropped("failed batch", 3)

	if _, err := e.EachRegion(ctx, wide, core.QuerySpec{}, func(int64, geom.Point) bool { return true }); !errors.Is(err, boom) {
		t.Errorf("Each err = %v, want boom", err)
	}
	dropped("failed Each", 4)
}

// TestKernelCancellationBeatsDegradation: a partition failing because the
// caller's context ended reports the caller's error, and is not counted as
// a failed partition call.
func TestKernelCancellationBeatsDegradation(t *testing.T) {
	parts, _ := fakeStrips(2, 50)
	ctx, cancel := context.WithCancel(context.Background())
	parts[1].err = context.Canceled // what a call cut short by its context reports
	// One worker: partition 0 has answered by the time partition 1 is asked.
	e := Over([]Partition{parts[0], &cancelOnCall{parts[1], cancel}}, unitBounds(), 1, nil)
	ids, _, err := e.QueryRegionSpec(ctx, rectRegion(0.1, 0.1, 0.9, 0.9), core.QuerySpec{})
	if !errors.Is(err, context.Canceled) || ids != nil {
		t.Fatalf("ids=%v err=%v, want context.Canceled and no partial ids", ids, err)
	}
	if n := e.Dropped(); n != 0 {
		t.Errorf("cancellation was counted as a failed partition call: %d", n)
	}
}

// cancelOnCall cancels the caller's context as the partition is queried.
type cancelOnCall struct {
	Partition
	cancel context.CancelFunc
}

func (c *cancelOnCall) Query(ctx context.Context, region core.Region, spec core.QuerySpec) ([]int64, core.Stats, error) {
	c.cancel()
	return c.Partition.Query(ctx, region, spec)
}

// TestKernelPrunesEmptyPartitions: a partition is contacted only for a
// region its key meets, so one holding no points — whose MBR is empty — is
// contacted for none, not even the whole universe.
func TestKernelPrunesEmptyPartitions(t *testing.T) {
	parts, all := fakeStrips(3, 100)
	hollow := &fakePart{off: int64(len(all))}
	e := over(append(parts, hollow))

	for _, tc := range []struct {
		region core.Region
		alive  []int
	}{
		{rectRegion(0.05, 0.2, 0.25, 0.8), []int{0}}, // inside strip 0 only
		{rectRegion(0, 0, 1, 1), []int{0, 1, 2}},     // the universe
	} {
		if alive := e.survivors(nil, tc.region); !slices.Equal(alive, tc.alive) {
			t.Errorf("survivors = %v, want %v", alive, tc.alive)
		}
		ids, _, err := e.QueryRegionSpec(context.Background(), tc.region, core.QuerySpec{})
		if err != nil || !slices.Equal(ids, bruteInside(all, tc.region)) {
			t.Fatalf("query: err=%v, %d ids", err, len(ids))
		}
	}
	if n := hollow.calls.Load(); n != 0 {
		t.Errorf("the empty partition was contacted %d times", n)
	}
}

// TestKernelUniverseIsNotTheUnionOfPruningKeys: Bounds is the universe
// Over was handed, however tight the partitions' keys are, and a region
// inside it that meets no key is answered — empty, with no partition
// contacted — by Query, a batch and Each alike.
func TestKernelUniverseIsNotTheUnionOfPruningKeys(t *testing.T) {
	parts, _ := fakeStrips(4, 50)
	parts = []*fakePart{parts[0], parts[3]} // data in x < 0.25 and x >= 0.75
	e := over(parts)
	if e.Bounds() != unitBounds() {
		t.Fatalf("Bounds() = %v, want the universe %v", e.Bounds(), unitBounds())
	}

	ctx := context.Background()
	between := rectRegion(0.4, 0.2, 0.6, 0.8)
	ids, st, err := e.QueryRegionSpec(ctx, between, core.QuerySpec{Dest: make([]int64, 0, 4)})
	if err != nil || len(ids) != 0 || st.ResultSize != 0 {
		t.Errorf("query between the keys: ids=%v stats=%+v err=%v", ids, st, err)
	}
	out, _, err := e.QueryRegionsSpec(ctx, []core.Region{between, between}, core.QuerySpec{})
	if err != nil || len(out) != 2 || len(out[0])+len(out[1]) != 0 {
		t.Errorf("batch between the keys: %v, err=%v", out, err)
	}
	if _, err := e.EachRegion(ctx, between, core.QuerySpec{}, func(int64, geom.Point) bool {
		t.Error("Each yielded between the keys")
		return true
	}); err != nil {
		t.Error(err)
	}
	for i, p := range parts {
		if n := p.calls.Load(); n != 0 {
			t.Errorf("partition %d was contacted %d times for a region that misses its key", i, n)
		}
	}
}

// batchPart is a fakePart that also answers several regions in one call,
// as an HTTP backend does, and counts those calls.
type batchPart struct {
	*fakePart
	batches atomic.Int64
}

func (p *batchPart) QueryRegions(ctx context.Context, regions []core.Region, spec core.QuerySpec) ([][]int64, core.Stats, error) {
	p.batches.Add(1)
	var (
		agg core.Stats
		out [][]int64
	)
	for _, r := range regions {
		ids, st, err := p.Query(ctx, r, spec)
		if err != nil {
			return nil, agg, err
		}
		agg.Add(st)
		if !spec.CountOnly {
			out = append(out, ids)
		}
	}
	return out, agg, nil
}

// TestSingleRegionPathIgnoresPartitionCount: a query is a one-region
// scatter whatever the partition count, so over 1, 2 and 8 shards and
// over RegionsQuerier fakes, QueryRegionSpec — plain, into a Reuse buffer,
// or counting only — and a one-region QueryRegionsSpec return the same
// ids, Stats and trace fan-out, the ids are the scan's, and a RegionsQuerier
// is asked one region at a time. A batch of every region then answers
// each region alike, its Stats the sum of the single queries', and a
// RegionsQuerier answers its share of it in one call.
func TestSingleRegionPathIgnoresPartitionCount(t *testing.T) {
	ctx := context.Background()
	data := geom.NewRect(0, 0, 0.8, 0.8)
	pts := workload.UniformPoints(rand.New(rand.NewSource(57)), 3000, data)
	engines := map[string]*Engine{}
	for _, shards := range []int{1, 2, 8} {
		engines[fmt.Sprintf("%d shards", shards)] = newSharded(t, pts, shards)
	}
	strips, all := fakeStrips(4, 200)
	batchers := make([]Partition, len(strips))
	for i, p := range strips {
		batchers[i] = &batchPart{fakePart: p}
	}
	engines["RegionsQuerier"] = Over(batchers, unitBounds(), 2, nil)

	regions := []core.Region{
		rectRegion(0.05, 0.05, 0.15, 0.15), // one shard or strip
		rectRegion(0.1, 0.2, 0.7, 0.6),     // several
		core.CircleRegion(geom.NewCircle(geom.Pt(0.4, 0.4), 0.2)),
		rectRegion(0.85, 0.85, 0.95, 0.95), // beyond the shards' points
	}
	for name, e := range engines {
		oracle := pts
		if name == "RegionsQuerier" {
			oracle = all
		}
		for _, m := range []core.Method{core.VoronoiBFS, core.Traditional} {
			var sum core.Stats
			for ri, r := range regions {
				want := bruteInside(oracle, r)
				for _, variant := range []string{"plain", "reuse", "count"} {
					var tq, tb obs.QueryTrace
					spec := core.QuerySpec{Method: m, Trace: &tq}
					switch variant {
					case "reuse":
						spec.Dest = make([]int64, 0, len(oracle))
					case "count":
						spec.CountOnly = true
					}
					ids, st, err := e.QueryRegionSpec(ctx, r, spec)
					if err != nil {
						t.Fatal(err)
					}
					spec.Trace = &tb
					out, bst, err := e.QueryRegionsSpec(ctx, []core.Region{r}, spec)
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("%s, %v, region %d, %s", name, m, ri, variant)
					if variant == "count" {
						if ids != nil || out != nil {
							t.Errorf("%s: ids returned under CountOnly", what)
						}
					} else if !slices.Equal(ids, want) || !slices.Equal(out[0], want) {
						t.Errorf("%s: %d and %d ids, the scan finds %d", what, len(ids), len(out[0]), len(want))
					}
					if variant == "reuse" && len(ids) > 0 && &ids[0] != &spec.Dest[:1][0] {
						t.Errorf("%s: the ids are not in the Reuse buffer", what)
					}
					if st != bst || st.ResultSize != len(want) {
						t.Errorf("%s: Stats %+v, one-region batch %+v, %d results", what, st, bst, len(want))
					}
					if tq.FanOut() != tb.FanOut() {
						t.Errorf("%s: fan-out %d, one-region batch %d", what, tq.FanOut(), tb.FanOut())
					}
					if variant == "plain" {
						sum.Add(st)
					}
				}
			}
			out, st, err := e.QueryRegionsSpec(ctx, regions, core.QuerySpec{Method: m})
			if err != nil {
				t.Fatal(err)
			}
			for ri, r := range regions {
				if !slices.Equal(out[ri], bruteInside(oracle, r)) {
					t.Errorf("%s, %v: batch region %d differs from the scan", name, m, ri)
				}
			}
			if st != sum {
				t.Errorf("%s, %v: batch Stats %+v, single queries sum to %+v", name, m, st, sum)
			}
		}
	}
	// One multi-region batch per method; a strip whose share of it is a
	// single region is asked that region alone.
	for i, p := range batchers {
		share := 0
		for _, r := range regions {
			if p.Bounds().Intersects(r.Bounds()) {
				share++
			}
		}
		want := int64(0)
		if share > 1 {
			want = 2
		}
		if n := p.(*batchPart).batches.Load(); n != want {
			t.Errorf("strip %d, a share of %d regions: %d batch calls, want %d", i, share, n, want)
		}
	}
}
