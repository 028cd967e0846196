package core

import (
	"math/bits"
	"slices"
	"sync"
)

// sortIDsCutoff is the length below which SortIDs hands the slice to
// slices.Sort: a radix sort's fixed cost (a sizing pass, a histogram to
// clear and prefix-sum per digit, a pool round trip) loses to pdqsort's
// insertion sort on short inputs. Measured on clustered 18-bit ids, a fresh
// input per call (BenchmarkSortIDs), slices.Sort against the radix path:
// 10 ids 0.14 against 0.62 µs, 32 ids 0.74 against 0.84 µs, 40 ids 0.98
// against 0.84 µs, 48 ids 1.1 against 0.9 µs, 64 ids 1.75 against 1.08 µs,
// 1000 ids 55 against 10 µs, 10 000 ids 650 against 100 µs. The curves
// cross between 32 and 40; 48 is the first size the radix path wins clearly.
const sortIDsCutoff = 48

// radixMaxBits caps the digit width of one radix pass: 2¹¹ counters are
// 16 KiB and stay in L1, and 11 bits still sorts any 22-bit id space (4M
// sites) in two passes. The width used is the largest id's bit length split
// evenly over the fewest passes the cap allows — 200k sites are 18 bits,
// two 9-bit passes.
const radixMaxBits = 11

// radixScratch is what one SortIDs call borrows: the ping-pong buffer and
// the digit histogram.
type radixScratch struct {
	buf   []int64
	count [1 << radixMaxBits]int
}

var radixScratches = sync.Pool{New: func() any { return new(radixScratch) }}

// SortIDs sorts ids ascending — the canonical order of every result the
// query layers return, and the one ordering step they share: the
// single-engine adapters and the scatter-gather merge all call it. It is an
// LSD radix sort over the bits the largest id actually uses, ping-ponging
// against a pooled buffer; inputs shorter than sortIDsCutoff, or holding a
// negative id, go to slices.Sort instead. The sizing pass also notices an
// input that is already ascending and returns at once, so sorting a slice
// a lower layer has sorted already costs one read of it.
func SortIDs(ids []int64) {
	if len(ids) < sortIDsCutoff {
		slices.Sort(ids)
		return
	}
	radixSortIDs(ids)
}

// radixSortIDs is SortIDs past the cutoff; ids must not be empty.
func radixSortIDs(ids []int64) {
	// One branch-free sizing pass: all ORs the ids (its sign bit says "a
	// negative id", its length how many bits to sort), drops ORs the steps
	// id[i] - id[i-1] (its sign bit says "a descent" — the differences
	// cannot wrap when no id is negative).
	all, drops, prev := int64(0), int64(0), ids[0]
	for _, id := range ids {
		all |= id
		drops |= id - prev
		prev = id
	}
	if all < 0 {
		slices.Sort(ids)
		return
	}
	if drops >= 0 {
		return // already ascending
	}
	width := bits.Len64(uint64(all))
	passes := (width + radixMaxBits - 1) / radixMaxBits
	digit := uint((width + passes - 1) / passes)

	s := radixScratches.Get().(*radixScratch)
	if cap(s.buf) < len(ids) {
		s.buf = make([]int64, len(ids))
	}
	src, dst := ids, s.buf[:len(ids)]
	for shift := uint(0); shift < uint(width); shift += digit {
		if s.pass(dst, src, shift, digit) {
			src, dst = dst, src
		}
	}
	if &src[0] != &ids[0] {
		copy(ids, src)
	}
	radixScratches.Put(s)
}

// pass distributes src into dst, stably, by the digit-bit digit at shift.
// It reports false, leaving dst untouched, when every id has the same digit
// there and the pass would be a copy.
//
//vaq:noalloc
func (s *radixScratch) pass(dst, src []int64, shift, digit uint) bool {
	mask := int64(1)<<digit - 1
	count := s.count[:mask+1]
	clear(count)
	for _, id := range src {
		count[id>>shift&mask]++
	}
	if count[src[0]>>shift&mask] == len(src) {
		return false
	}
	next := 0
	for d, n := range count {
		count[d], next = next, next+n
	}
	for _, id := range src {
		d := id >> shift & mask
		dst[count[d]] = id
		count[d]++
	}
	return true
}
