package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"

	vaq "repro"
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// idsDigest is FNV-1a over the little-endian bytes of ids in the order
// given; every engine flavor returns ascending ids, so equal result sets
// digest equal.
func idsDigest(ids []int64) uint64 {
	h := uint64(fnvOffset64)
	var b [8]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint64(b[:], uint64(id))
		for _, c := range b {
			h = (h ^ uint64(c)) * fnvPrime64
		}
	}
	return h
}

// expected is what the oracle says one region must return.
type expected struct {
	count  int
	digest uint64
}

// bruteForce computes each region's expected ids over pts with no index:
// a bounding-box test on the raw coordinates, then the exact containment
// test. A point's id is its position in pts. Regions are split over the
// available cores; nothing else runs while the oracle does.
func bruteForce(pts []vaq.Point, pool []shape) []expected {
	out := make([]expected, len(pool))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ids []int64
			for ri := w; ri < len(pool); ri += workers {
				s := &pool[ri]
				bb := s.bounds()
				ids = ids[:0]
				for i, p := range pts {
					if p.X < bb.MinX || p.X > bb.MaxX || p.Y < bb.MinY || p.Y > bb.MaxY {
						continue
					}
					if s.contains(p) {
						ids = append(ids, int64(i))
					}
				}
				out[ri] = expected{count: len(ids), digest: idsDigest(ids)}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// checkResult compares one query result with the oracle.
func checkResult(what string, ri int, ids []int64, want expected) error {
	if len(ids) != want.count {
		return fmt.Errorf("%s: region %d returned %d ids, oracle says %d", what, ri, len(ids), want.count)
	}
	if d := idsDigest(ids); d != want.digest {
		return fmt.Errorf("%s: region %d digest %016x, oracle says %016x", what, ri, d, want.digest)
	}
	return nil
}
