package vaq

import (
	"context"
	"math/rand"
	"slices"
	"testing"
)

// TestReuseEmptyResultNotNil pins the Dest contract on an empty result:
// with a Reuse buffer, every flavor returns the (non-nil) buffer truncated
// to length zero, exactly like the unsharded core engine — the sharded
// gather path used to drop the buffer and return nil.
func TestReuseEmptyResultNotNil(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	pts := UniformPoints(rng, 1200, UnitSquare())
	flavors := buildFlavors(t, pts)
	ctx := context.Background()

	// Covers no points with near-certainty at n=1200.
	empty := PolygonRegion(MustPolygon([]Point{
		Pt(0.00001, 0.00001), Pt(0.00002, 0.00001), Pt(0.00002, 0.00002),
	}))

	for _, f := range flavors {
		buf := make([]int64, 0, 8)
		got, err := f.q.Query(ctx, empty, Reuse(buf))
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if len(got) != 0 {
			t.Fatalf("%s: empty region returned %d ids", f.name, len(got))
		}
		if got == nil {
			t.Errorf("%s: empty result with Reuse is nil, want buf[:0]", f.name)
		}
		// Without Reuse the empty result may be nil; both shapes must have
		// length zero (pinned above) — no further constraint.
	}
}

// TestOptionInteractions pins the documented option-interaction semantics
// on every flavor: CountOnly makes Reuse a no-op (nil result, not
// buf[:0]), duplicate options resolve last-wins, and the Count helper
// composes with a caller's full option set without resolving it twice.
func TestOptionInteractions(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	pts := UniformPoints(rng, 1500, UnitSquare())
	flavors := buildFlavors(t, pts)
	ctx := context.Background()
	region := CircleRegion(NewCircle(Pt(0.5, 0.5), 0.2))

	for _, f := range flavors {
		want, err := f.q.Query(ctx, region)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: region unexpectedly empty", f.name)
		}

		// CountOnly + Reuse: nothing is materialized, so the buffer is a
		// no-op and the result is nil — identically on every backend.
		buf := make([]int64, 0, len(want))
		var st Stats
		ids, err := f.q.Query(ctx, region, CountOnly(), Reuse(buf), WithStatsInto(&st))
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if ids != nil {
			t.Errorf("%s: CountOnly+Reuse returned a %d-id slice, want nil", f.name, len(ids))
		}
		if st.ResultSize != len(want) {
			t.Errorf("%s: CountOnly count = %d, want %d", f.name, st.ResultSize, len(want))
		}

		// Duplicate options: the last occurrence wins.
		var first, last Stats
		got, err := f.q.Query(ctx, region,
			UsingMethod(BruteForce), UsingMethod(VoronoiBFS),
			WithStatsInto(&first), WithStatsInto(&last))
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: duplicate-option query diverged", f.name)
		}
		if last.Method != VoronoiBFS {
			t.Errorf("%s: last UsingMethod did not win (got %v)", f.name, last.Method)
		}
		if first != (Stats{}) {
			t.Errorf("%s: overridden WithStatsInto was written: %+v", f.name, first)
		}

		// Count with a caller's method, Reuse and stats: one resolve, all
		// semantics preserved (the method holds, buffer untouched).
		var cst Stats
		n, err := Count(ctx, f.q, region, UsingMethod(BruteForce), Reuse(buf), WithStatsInto(&cst))
		if err != nil {
			t.Fatalf("%s: Count: %v", f.name, err)
		}
		if n != len(want) || cst.ResultSize != len(want) || cst.Method != BruteForce {
			t.Errorf("%s: Count = %d (stats %d, %v), want %d by %v", f.name, n, cst.ResultSize, cst.Method, len(want), BruteForce)
		}
	}
}
