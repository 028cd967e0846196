package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/workload"
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

// distinctIDs returns n distinct ids drawn uniformly from [lo, lo+span), in
// random order: a result over ids with no spatial order, as a dynamic
// engine's arrival-order ids give, or with span near n a BFS result's dense
// runs.
func distinctIDs(rng *rand.Rand, n int, lo, span int64) []int64 {
	seen := make(map[int64]bool, n)
	ids := make([]int64, 0, n)
	for len(ids) < n {
		if id := lo + rng.Int63n(span); !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

func TestSortIDsEqualsSlicesSort(t *testing.T) {
	clean := watchSortScratches(t)
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
	// The presence path's edges: its span limit to the word, an id repeated
	// first, last and in the middle (the bitmap must be left clean for the
	// radix path that takes over), ids far from zero.
	const atLimit = 64 * presenceWordsPerID * 1000
	spanAtLimit := distinctIDs(rng, 1000, 1, atLimit-2)
	spanAtLimit[0], spanAtLimit[1] = 0, atLimit-1
	spanPastLimit := slices.Clone(spanAtLimit)
	spanPastLimit[1] = atLimit
	dense := distinctIDs(rng, 1000, 0, 1500)
	repeatFirst := append([]int64{dense[7]}, dense...)
	repeatLast := append(slices.Clone(dense), dense[0])
	repeatMiddle := slices.Clone(dense)
	repeatMiddle[500] = repeatMiddle[20]

	cases := map[string][]int64{
		"presence, dense":           dense,
		"presence, span at limit":   spanAtLimit,
		"presence, span past limit": spanPastLimit,
		"presence, far from zero":   distinctIDs(rng, 1000, 1<<40, 3000),
		"presence, one word":        distinctIDs(rng, 60, 1<<20, 64),
		"repeat first":              repeatFirst,
		"repeat last":               repeatLast,
		"repeat middle":             repeatMiddle,
		"arrival order":             distinctIDs(rng, 1000, 3, 200_000),
		"nil":                       nil,
		"empty":                     {},
		"one":                       {42},
		"cutoff-1":                  random(sortIDsCutoff-1, 1<<18),
		"cutoff":                    random(sortIDsCutoff, 1<<18),
		"cutoff+1":                  random(sortIDsCutoff+1, 1<<18),
		"already ascending":         ascending,
		"descending":                descending,
		"all equal":                 allEqual,
		"heavy duplicates":          random(5000, 7),
		"one pass":                  random(1000, 1<<radixMaxBits),
		"two passes":                random(1000, 1<<(radixMaxBits+1)),
		"beyond 2^32":               random(3000, 1<<40),
		"full 63 bits":              random(3000, 1<<62),
		"high digits all equal":     append(random(500, 1<<10), 1<<40|3, 1<<40|1),
		"one negative":              oneNegative,
		"clustered":                 clusteredIDs(rng, 1000),
		"1e5 random":                random(100_000, 1<<18),
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
		clean(t)
	}
}

// FuzzSortIDs holds SortIDs and its radix half (the presence path included,
// below the length cutoff too) to slices.Sort on whatever ids the bytes
// spell, and checks after every call that the pooled presence bitmap went
// back all-zero. data[0] picks a shape, data[1] an offset, and every two
// bytes after them one id: as decoded (16 bits), folded into 64 values
// (duplicates everywhere), negative, or spread so that the span lands
// exactly at, one word under or one word over the presence path's limit.
func FuzzSortIDs(f *testing.F) {
	clean := watchSortScratches(f)
	decode := func(data []byte) []int64 {
		if len(data) < 2 {
			return nil
		}
		shape, base := data[0], int64(data[1])<<33
		vals := data[2:]
		ids := make([]int64, len(vals)/2)
		n := int64(len(ids))
		span := 64 * (presenceWordsPerID*n + int64(shape>>2)%3 - 1) // at the limit, -1 or +1 word
		for i := range ids {
			v := int64(binary.LittleEndian.Uint16(vals[2*i:]))
			switch shape % 4 {
			case 1:
				v &= 63
			case 2:
				v -= 1 << 15
				base = 0
			case 3:
				switch i {
				case 0:
					v = 0
				case 1:
					v = span - 1
				default:
					v = v * 0x9e37 % span
				}
			}
			ids[i] = base + v
		}
		return ids
	}
	u16s := func(shape byte, vals ...uint16) []byte {
		data := []byte{shape, 1}
		for _, v := range vals {
			data = binary.LittleEndian.AppendUint16(data, v)
		}
		return data
	}
	descending := make([]uint16, 60)
	for i := range descending {
		descending[i] = uint16(1000 - 3*i)
	}
	// testdata/fuzz/FuzzSortIDs/repeated-id-last is these 60 with the 18th
	// repeated as the last element: the presence pass has set every other
	// bit when it meets the repeat, and must clear them all.
	f.Add(u16s(0, descending...))
	f.Add(u16s(1, descending...))
	f.Add(u16s(2, descending...))
	for words := byte(0); words < 3; words++ {
		f.Add(u16s(3|words<<2, descending...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ids := decode(data)
		want := slices.Clone(ids)
		slices.Sort(want)
		got := slices.Clone(ids)
		SortIDs(got)
		clean(t)
		if !slices.Equal(got, want) {
			t.Fatalf("SortIDs(%v) = %v, want %v", ids, got, want)
		}
		if len(ids) == 0 {
			return
		}
		got = slices.Clone(ids)
		radixSortIDs(got)
		clean(t)
		if !slices.Equal(got, want) {
			t.Fatalf("radixSortIDs(%v) = %v, want %v", ids, got, want)
		}
	})
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

// TestSortIDsAllocs pins both warm paths at zero allocations: distinct ids
// dense in their range (what an area query returns) take the presence
// bitmap, and clustered ids with repeats try it, find a repeat, and fall
// back to radix.
func TestSortIDsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates inside sync.Pool")
	}
	rng := rand.New(rand.NewSource(2))
	for name, shuffled := range map[string][]int64{
		"presence":         distinctIDs(rng, 1000, 1<<17, 4000),
		"repeats to radix": clusteredIDs(rng, 1000),
	} {
		ids := make([]int64, len(shuffled))
		allocs := testing.AllocsPerRun(50, func() {
			copy(ids, shuffled)
			SortIDs(ids)
		})
		if allocs != 0 || !slices.IsSorted(ids) {
			t.Fatalf("%s: SortIDs(1000 ids): %.1f allocs per call warm (want 0), sorted %v", name, allocs, slices.IsSorted(ids))
		}
	}
}

// BenchmarkSortIDs is the measurement behind sortIDsCutoff and
// presenceWordsPerID. Each call sorts another of many inputs, as each query
// does: one input sorted over and over teaches the branch predictor
// pdqsort's every comparison and flatters it fourfold.
//
// cutoff/: SortIDs with the cutoff out of the way (radix) against
// slices.Sort, on clustered 18-bit ids in discovery order.
//
// bfs/ and arrival/: the presence bitmap (radixSortIDs, which takes it on
// these inputs) against the radix passes alone, on distinct ids. bfs/ are
// real Algorithm 1 results in discovery order — 200k Hilbert-sorted uniform
// sites, ten-vertex polygons of the given query size; arrival/ are n
// distinct ids drawn uniformly from a range of the given words per id, the
// shape a dynamic engine's arrival-order ids give.
func BenchmarkSortIDs(b *testing.B) {
	for _, n := range []int{10, 32, 40, 48, 64, 128, 1000, 10_000} {
		rng := rand.New(rand.NewSource(3))
		inputs := make([][]int64, max(4, 200_000/n))
		for i := range inputs {
			inputs[i] = clusteredIDs(rng, n)
		}
		benchmarkSorts(b, fmt.Sprintf("cutoff/n=%d", n), inputs, map[string]func([]int64){
			"radix": radixSortIDs, "slices.Sort": slices.Sort[[]int64],
		})
	}

	presenceAgainstRadix := map[string]func([]int64){"presence": presenceOnly, "radix": radixOnly}
	rng := rand.New(rand.NewSource(3))
	pts := workload.UniformPoints(rng, 200_000, unitBounds())
	hilbertSort(pts, unitBounds())
	data, err := NewMemoryData(pts, unitBounds())
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(NewRTreeIndex(pts, 16), data)
	for _, qs := range []float64{0.001, 0.01, 0.04} {
		var inputs [][]int64
		for range 64 {
			region := PolygonRegion(workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: qs}, unitBounds()))
			ids, _, err := query(eng, VoronoiBFS, region)
			if err != nil {
				b.Fatal(err)
			}
			if len(ids) >= sortIDsCutoff {
				inputs = append(inputs, ids)
			}
		}
		benchmarkSorts(b, fmt.Sprintf("bfs/qs=%g", qs), inputs, presenceAgainstRadix)
	}
	for _, n := range []int{250, 1000} {
		for _, words := range []float64{0.25, 0.5, 1, 2, 4, 8} {
			inputs := make([][]int64, 64)
			for i := range inputs {
				inputs[i] = distinctIDs(rng, n, 3, int64(words*64*float64(n)))
			}
			benchmarkSorts(b, fmt.Sprintf("arrival/n=%d/words=%g", n, words), inputs, presenceAgainstRadix)
		}
	}
}

// benchmarkSorts runs each sort over inputs, one input per call, copying it
// into a buffer first.
func benchmarkSorts(b *testing.B, prefix string, inputs [][]int64, sorts map[string]func([]int64)) {
	longest := 0
	for _, in := range inputs {
		longest = max(longest, len(in))
	}
	buf := make([]int64, longest)
	// words/id is the presence bitmap's size over the input's length, the
	// quantity presenceWordsPerID bounds, averaged over inputs.
	wordsPerID := 0.0
	for _, in := range inputs {
		wordsPerID += float64((slices.Max(in)-slices.Min(in))>>6+1) / float64(len(in)) / float64(len(inputs))
	}
	for name, sort := range sorts {
		b.Run(prefix+"/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in := inputs[i%len(inputs)]
				ids := buf[:len(in)]
				copy(ids, in)
				sort(ids)
			}
			b.ReportMetric(wordsPerID, "words/id")
		})
	}
}

// presenceOnly is radixSortIDs' presence path whatever the span, on
// distinct ids.
func presenceOnly(ids []int64) {
	lo, hi := ids[0], ids[0]
	for _, id := range ids {
		lo, hi = min(lo, id), max(hi, id)
	}
	s := radixScratches.Get().(*radixScratch)
	words := (hi-lo)>>6 + 1
	if int64(cap(s.bits)) < words {
		s.bits = make([]uint64, words)
	}
	presenceSort(ids, lo, s.bits[:words])
	radixScratches.Put(s)
}

// radixOnly is radixSortIDs without the presence path.
func radixOnly(ids []int64) {
	all := int64(0)
	for _, id := range ids {
		all |= id
	}
	s := radixScratches.Get().(*radixScratch)
	s.radix(ids, all)
	radixScratches.Put(s)
}
