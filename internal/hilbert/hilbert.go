// Package hilbert owns the repository's one curve order: Runs sorts points
// along a Hilbert space-filling curve over a bounding box and cuts that
// order into runs of near-equal size.
//
// Points close on the curve are close in the plane, so the one order serves
// three purposes: it is the order a static layer inserts its sites in (each
// Delaunay walk starts at the previous site, a few steps away) and lays its
// store's records on pages in, and its runs are the compact tiles the
// sharded engine's shards and areaserve's chunks hold.
package hilbert

import (
	"math"
	"slices"

	"repro/internal/geom"
)

// order is the curve order: a 2^16 × 2^16 grid, so a curve index fits in
// 32 bits and packs with a point's index into one word.
const order = 16

// Runs returns the indexes of pts sorted along the Hilbert curve over
// bounds, ties broken by index, cut into parts runs of near-equal size: the
// first len(pts)%parts runs hold one index more. parts is clamped to
// [1, max(len(pts), 1)], so no run is empty unless pts is, and then there is
// one empty run. A point outside bounds sorts as if clamped onto it.
func Runs(pts []geom.Point, bounds geom.Rect, parts int) [][]int32 {
	// Key above index in one word: sorting the words sorts by key, then
	// index.
	keys := make([]uint64, len(pts))
	for i, p := range pts {
		x := grid(p.X, bounds.MinX, bounds.MaxX)
		y := grid(p.Y, bounds.MinY, bounds.MaxY)
		keys[i] = xyToD(order, x, y)<<32 | uint64(i)
	}
	slices.Sort(keys)
	idx := make([]int32, len(keys))
	for i, k := range keys {
		idx[i] = int32(k & math.MaxUint32)
	}
	parts = max(1, min(parts, len(idx)))
	runs := make([][]int32, parts)
	size, extra := len(idx)/parts, len(idx)%parts
	for p := range runs {
		n := size
		if p < extra {
			n++
		}
		runs[p], idx = idx[:n:n], idx[n:]
	}
	return runs
}

// grid maps v in [lo, hi] onto a column of the curve's grid, clamping a
// value outside; a flat axis (hi <= lo) maps everything to column 0.
func grid(v, lo, hi float64) uint32 {
	span := hi - lo
	if span <= 0 {
		return 0
	}
	f := (v - lo) / span
	if f < 0 {
		f = 0
	} else if f > 1 {
		f = 1
	}
	return uint32(f * float64(uint64(1)<<order-1))
}

// xyToD converts grid coordinates (x, y) in [0, 2^order) to the distance
// along the Hilbert curve of the given order.
func xyToD(order uint, x, y uint32) uint64 {
	var rx, ry uint32
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s >>= 1 {
		if x&s > 0 {
			rx = 1
		} else {
			rx = 0
		}
		if y&s > 0 {
			ry = 1
		} else {
			ry = 0
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		x, y = rot(s, x, y, rx, ry)
	}
	return d
}

// rot rotates/flips a quadrant appropriately.
func rot(n, x, y, rx, ry uint32) (uint32, uint32) {
	if ry == 0 {
		if rx == 1 {
			x = n - 1 - x
			y = n - 1 - y
		}
		x, y = y, x
	}
	return x, y
}
