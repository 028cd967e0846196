package shard

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
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
	var ids []int64
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
