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

// presenceWordsPerID bounds the presence path: SortIDs sets a bit per id in
// a bitmap over [min, max] and reads the bits back when that bitmap is at
// most this many 64-bit words per id. Measured (BenchmarkSortIDs, bitmap
// against the radix passes, median of five): on Algorithm 1 results over
// 200k Hilbert-sorted sites, whose ids sit in dense runs, the bitmap wins
// at every size — 0.1 % regions 0.36 against 1.7 µs (0.87 words per id),
// 1 % 3.5 against 8.3 µs (0.32), 4 % 11.8 against 40.6 µs (0.23). On ids
// drawn at random from a range every word holds a bit or two, the scan's
// skip branch stops predicting, and the curves cross near one word per
// id: 1000 ids at 0.5 / 1 / 2 / 4 words 6.2 / 8.9 / 11.4 / 13.4 against
// 7.3 / 8.0 / 6.6 / 6.9 µs, 250 ids 1.6 / 2.1 / 2.7 / 3.0 against 2.5 /
// 2.2 / 2.3 / 2.3 µs. Two words per id covers every 1 % result measured
// over Morton-ordered sites (median 0.18 words per id, max 2.1) and leaves
// a dynamic engine's arrival-order results of the same regions (≈ 3 words
// per id at 50k sites) to radix.
const presenceWordsPerID = 2

// radixScratch is what one SortIDs call borrows: the ping-pong buffer, the
// digit histogram and the presence bitmap. The bitmap goes back to the pool
// all-zero — presenceSort clears every bit it sets, on both of its exits —
// so no call pays to clear it first.
type radixScratch struct {
	buf   []int64
	count [1 << radixMaxBits]int
	bits  []uint64
}

var radixScratches = sync.Pool{New: func() any { return new(radixScratch) }}

// SortIDs sorts ids ascending — the canonical order of every result the
// query layers return, and the one ordering step they share: the
// scatter-gather kernel's gather calls it, on a region one partition
// answered and on the merge of several. Ids that are dense enough in their
// own range — an area query's result over spatially ordered ids is — are
// ordered through a presence bitmap: one bit set per id, the set bits read
// back in order. Any other input goes to an LSD radix sort over the bits the
// largest id actually uses, ping-ponging against a pooled buffer; inputs
// shorter than sortIDsCutoff, or holding a negative id, go to slices.Sort
// instead. The sizing pass also notices an input that is already ascending
// and returns at once, so sorting a slice a lower layer has sorted already
// costs one read of it.
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
	// cannot wrap when no id is negative), lo and hi bound the bitmap.
	all, drops, prev := int64(0), int64(0), ids[0]
	lo, hi := prev, prev
	for _, id := range ids {
		all |= id
		drops |= id - prev
		prev = id
		lo, hi = min(lo, id), max(hi, id)
	}
	if all < 0 {
		slices.Sort(ids)
		return
	}
	if drops >= 0 {
		return // already ascending
	}

	s := radixScratches.Get().(*radixScratch)
	// hi - lo cannot wrap: neither is negative.
	if words := (hi-lo)>>6 + 1; words <= presenceWordsPerID*int64(len(ids)) {
		if int64(cap(s.bits)) < words {
			s.bits = make([]uint64, words)
		}
		if presenceSort(ids, lo, s.bits[:words]) {
			radixScratches.Put(s)
			return
		}
	}
	s.radix(ids, all)
	radixScratches.Put(s)
}

// radix sorts ids, none negative and all of whose set bits are set in all,
// by the fewest passes of at most radixMaxBits bits each.
func (s *radixScratch) radix(ids []int64, all int64) {
	width := bits.Len64(uint64(all))
	passes := (width + radixMaxBits - 1) / radixMaxBits
	digit := uint((width + passes - 1) / passes)
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
}

// presenceSort orders ids by setting bit id-lo of set, then writing the
// set bits back over ids in ascending order, clearing each word as it is
// read. A bit found already set is a repeated id, which a bitmap cannot
// count: it then clears the words it wrote and reports false, leaving ids
// untouched for the radix path. Either way set is all-zero on return.
//
//vaq:noalloc
func presenceSort(ids []int64, lo int64, set []uint64) bool {
	for i, id := range ids {
		d := uint64(id - lo)
		w, bit := d>>6, uint64(1)<<(d&63)
		if set[w]&bit != 0 {
			for _, id := range ids[:i] {
				set[uint64(id-lo)>>6] = 0
			}
			return false
		}
		set[w] |= bit
	}
	out := 0
	for w, word := range set {
		if word == 0 {
			continue
		}
		set[w] = 0
		base := lo + int64(w)<<6
		for ; word != 0; word &= word - 1 {
			ids[out] = base + int64(bits.TrailingZeros64(word))
			out++
		}
	}
	return true
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
