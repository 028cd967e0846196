package rtree

import (
	"maps"
	"testing"

	"repro/internal/geom"
)

// FuzzWindowMatchesScan packs fuzzer-chosen points snapped to a 17×17
// lattice on the unit square — so duplicates, collinear runs and points on
// a window's edges are the rule — at fan-outs 4 and 16, and asks each tree
// for one window and one nearest neighbour: Search must report exactly the
// ids a scan of the closed window finds, each once, and NearestNeighbor an
// id at or past first whose point is as near as the scan's nearest.
//
// The bytes: four window corner coordinates, a query point on the
// half-step lattice (up to a step outside the square), how many leading
// points lie below first (0–3), then one byte pair per point, at most 300.
// The committed corpus holds a full lattice, one point repeated, a row on a
// window edge and points only below first.
func FuzzWindowMatchesScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 7 {
			return
		}
		lattice := func(b byte) float64 { return float64(b%17) / 16 }
		half := func(b byte) float64 { return float64(b%35)/32 - 1.0/32 }
		q := geom.NewRect(lattice(in[0]), lattice(in[1]), lattice(in[2]), lattice(in[3]))
		at := geom.Pt(half(in[4]), half(in[5]))
		var pts []geom.Point
		for i := 7; i+1 < len(in) && len(pts) < 300; i += 2 {
			pts = append(pts, geom.Pt(lattice(in[i]), lattice(in[i+1])))
		}
		first := min(int(in[6]%4), len(pts))
		want := bruteSearch(pts, first, q)
		for _, fanout := range []int{4, 16} {
			tr := BulkLoad(pts, first, fanout)
			if err := tr.Validate(); err != nil {
				t.Fatalf("fan-out %d: %v", fanout, err)
			}
			got := make(map[int64]bool)
			tr.Search(q, func(id int64) bool {
				if got[id] {
					t.Fatalf("fan-out %d: window %v reports id %d twice", fanout, q, id)
				}
				got[id] = true
				return true
			})
			if !maps.Equal(got, want) {
				t.Fatalf("fan-out %d: window %v reports %v, a scan finds %v", fanout, q, got, want)
			}
			id, _, ok := tr.NearestNeighbor(at)
			if ok != (first < len(pts)) {
				t.Fatalf("fan-out %d: NearestNeighbor ok=%v over %d points from %d", fanout, ok, len(pts), first)
			}
			if !ok {
				continue
			}
			if d, wantD := pts[id].Dist2(at), bruteNearest(pts[first:], at); id < int64(first) || d != wantD {
				t.Fatalf("fan-out %d: NearestNeighbor(%v) = id %d at %g, a scan finds %g", fanout, at, id, d, wantD)
			}
		}
	})
}
