package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// clusteredIDs returns n ids shaped like a BFS result over Morton-sorted
// sites: a few contiguous-ish runs of an 18-bit id space, in discovery
// (shuffled) order.
func clusteredIDs(rng *rand.Rand, n int) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(rng.Intn(4))<<16 | int64(rng.Intn(4*n+1))
	}
	return ids
}

func TestSortIDsEqualsSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := func(n int, max int64) []int64 {
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = rng.Int63n(max)
		}
		return ids
	}
	ascending := random(10_000, 1<<18)
	slices.Sort(ascending)
	descending := slices.Clone(ascending)
	slices.Reverse(descending)
	allEqual := make([]int64, 1000)
	for i := range allEqual {
		allEqual[i] = 77
	}
	oneNegative := random(1000, 1<<18)
	oneNegative[613] = -5

	cases := map[string][]int64{
		"nil":                   nil,
		"empty":                 {},
		"one":                   {42},
		"cutoff-1":              random(sortIDsCutoff-1, 1<<18),
		"cutoff":                random(sortIDsCutoff, 1<<18),
		"cutoff+1":              random(sortIDsCutoff+1, 1<<18),
		"already ascending":     ascending,
		"descending":            descending,
		"all equal":             allEqual,
		"heavy duplicates":      random(5000, 7),
		"one pass":              random(1000, 1<<radixMaxBits),
		"two passes":            random(1000, 1<<(radixMaxBits+1)),
		"beyond 2^32":           random(3000, 1<<40),
		"full 63 bits":          random(3000, 1<<62),
		"high digits all equal": append(random(500, 1<<10), 1<<40|3, 1<<40|1),
		"one negative":          oneNegative,
		"clustered":             clusteredIDs(rng, 1000),
		"1e5 random":            random(100_000, 1<<18),
	}
	for name, ids := range cases {
		want := slices.Clone(ids)
		slices.Sort(want)
		SortIDs(ids)
		if !slices.Equal(ids, want) {
			t.Errorf("%s: SortIDs differs from slices.Sort", name)
		}
		if (ids == nil) != (want == nil) {
			t.Errorf("%s: nil-ness changed", name)
		}
	}
}

// TestSortIDsLeavesPoolAloneWhenItCan: a nil slice (what the adapters pass
// under CountOnly), a short one, and one that is already ascending — the
// scatter-gather kernel's merged result arriving at the public adapter,
// which orders it again — must return without checking a scratch out.
func TestSortIDsLeavesPoolAloneWhenItCan(t *testing.T) {
	saved := radixScratches.New
	defer func() { radixScratches = sync.Pool{New: saved} }()
	checkouts := 0
	radixScratches = sync.Pool{New: func() any { checkouts++; return new(radixScratch) }}

	ascending := make([]int64, 10_000)
	for i := range ascending {
		ascending[i] = int64(3 * i)
	}
	SortIDs(nil)
	SortIDs([]int64{3, 1, 2})
	SortIDs(ascending)
	if checkouts != 0 {
		t.Fatalf("nil, short and ascending inputs checked out %d scratches, want 0", checkouts)
	}
	ascending[0], ascending[1] = ascending[1], ascending[0]
	SortIDs(ascending)
	if checkouts != 1 || !slices.IsSorted(ascending) {
		t.Fatalf("unsorted input: %d checkouts (want 1: the counting pool is empty), sorted %v",
			checkouts, slices.IsSorted(ascending))
	}
}

// TestSortIDsAllocs pins the warm radix path at zero allocations.
func TestSortIDsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates inside sync.Pool")
	}
	shuffled := clusteredIDs(rand.New(rand.NewSource(2)), 1000)
	ids := make([]int64, len(shuffled))
	allocs := testing.AllocsPerRun(50, func() {
		copy(ids, shuffled)
		SortIDs(ids)
	})
	if allocs != 0 || !slices.IsSorted(ids) {
		t.Fatalf("SortIDs(1000 ids): %.1f allocs per call warm (want 0), sorted %v", allocs, slices.IsSorted(ids))
	}
}

// BenchmarkSortIDs is the measurement behind sortIDsCutoff: SortIDs with
// the cutoff out of the way (radix) against slices.Sort, on clustered
// 18-bit ids in discovery order. Each call sorts another of many inputs, as
// each query does: one input sorted over and over teaches the branch
// predictor pdqsort's every comparison and flatters it fourfold.
func BenchmarkSortIDs(b *testing.B) {
	for _, n := range []int{10, 32, 40, 48, 64, 128, 1000, 10_000} {
		rng := rand.New(rand.NewSource(3))
		inputs := make([][]int64, max(4, 200_000/n))
		for i := range inputs {
			inputs[i] = clusteredIDs(rng, n)
		}
		ids := make([]int64, n)
		for name, sort := range map[string]func([]int64){"radix": radixSortIDs, "slices.Sort": slices.Sort[[]int64]} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(ids, inputs[i%len(inputs)])
					sort(ids)
				}
			})
		}
	}
}
