package core

import (
	"sync"
	"testing"
)

// watchSortScratches swaps SortIDs' scratch pool for one whose scratches the
// test can see, restored at cleanup. The returned check fails t unless every
// scratch the pool has made holds an all-zero presence bitmap, the whole
// capacity of it. Between SortIDs calls on one goroutine no scratch is
// checked out, so that is what the next call would be handed: a bit left set
// there would read back as an id the next query never found.
func watchSortScratches(tb testing.TB) (check func(t testing.TB)) {
	saved := radixScratches.New
	tb.Cleanup(func() { radixScratches = sync.Pool{New: saved} })
	var made []*radixScratch
	radixScratches = sync.Pool{New: func() any {
		s := new(radixScratch)
		made = append(made, s)
		return s
	}}
	return func(t testing.TB) {
		t.Helper()
		for i, s := range made {
			for w, word := range s.bits[:cap(s.bits)] {
				if word != 0 {
					t.Fatalf("scratch %d went back to the pool with bitmap word %d = %#x", i, w, word)
				}
			}
		}
	}
}
