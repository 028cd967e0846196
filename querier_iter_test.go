package vaq

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// TestResultsMatchesEach pins the range-over-func facade on every flavor:
// ranging over Results visits exactly the pairs Each yields, and the error
// function reports a clean finish.
func TestResultsMatchesEach(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pts := UniformPoints(rng, 1000, UnitSquare())
	flavors := buildFlavors(t, pts)
	ctx := context.Background()
	region := PolygonRegion(RandomQueryPolygon(rng, 10, 0.05, UnitSquare()))

	for _, f := range flavors {
		var want []int64
		if err := f.q.Each(ctx, region, func(id int64, _ Point) bool {
			want = append(want, id)
			return true
		}); err != nil {
			t.Fatalf("%s: Each: %v", f.name, err)
		}
		slices.Sort(want)

		var got []int64
		seq, errf := Results(ctx, f.q, region)
		for id, p := range seq {
			if wp, ok := f.pointOf(pts, id); !ok || p != wp {
				t.Fatalf("%s: id %d position %v, want %v", f.name, id, p, wp)
			}
			got = append(got, id)
		}
		if err := errf(); err != nil {
			t.Fatalf("%s: errf after clean loop: %v", f.name, err)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: ranged %d ids, Each yielded %d", f.name, len(got), len(want))
		}
	}
}

// TestResultsEarlyBreak pins that breaking out of the range loop stops the
// query cleanly (no error) and that query options thread through.
func TestResultsEarlyBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	pts := UniformPoints(rng, 1000, UnitSquare())
	eng, err := NewEngine(pts, UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	region := PolygonRegion(MustPolygon([]Point{
		Pt(0.1, 0.1), Pt(0.9, 0.1), Pt(0.9, 0.9), Pt(0.1, 0.9),
	}))

	seen := 0
	seq, errf := Results(context.Background(), eng, region)
	for range seq {
		seen++
		if seen == 3 {
			break
		}
	}
	if err := errf(); err != nil {
		t.Fatalf("errf after break: %v", err)
	}
	if seen != 3 {
		t.Fatalf("saw %d pairs, want 3", seen)
	}

	// Options thread through: the method and the stats destination.
	var st Stats
	n := 0
	seq, errf = Results(context.Background(), eng, region, UsingMethod(BruteForce), WithStatsInto(&st))
	for range seq {
		n++
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	if st.Method != BruteForce || st.ResultSize != n || n == 0 {
		t.Fatalf("BruteForce sequence yielded %d (stats %d, method %v)", n, st.ResultSize, st.Method)
	}
}

// TestResultsErrorPropagation pins that a failing query surfaces through
// the error function, not a panic mid-range.
func TestResultsErrorPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	pts := UniformPoints(rng, 500, UnitSquare())
	eng, err := NewEngine(pts, UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	region := PolygonRegion(RandomQueryPolygon(rng, 8, 0.05, UnitSquare()))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seq, errf := Results(ctx, eng, region)
	for range seq {
	}
	if err := errf(); !errors.Is(err, context.Canceled) {
		t.Fatalf("errf = %v, want context.Canceled", err)
	}
}
