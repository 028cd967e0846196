// Package delaunay builds the Delaunay triangulation of a planar point set
// and answers the topology query the Voronoi-based area query needs: the
// Delaunay (equivalently, Voronoi) neighbors of every site, as per-site rings
// or as the CSR arrays an engine keeps.
//
// There is one construction: Dynamic's insertion (Guibas & Stolfi's
// InsertSite), one site at a time into a triangulation whose outer face is a
// fence triangle of three sites far outside a declared universe. Every
// orientation and in-circle decision goes through package robust, so
// collinear runs and cocircular quadruples are decided exactly. Bulk inserts
// a whole point set in the order its caller gives — a space-filling curve
// order keeps each insertion's walk, started at the previous insertion, a
// few steps long (BRIO; Amenta, Choi and Rote) — and a dynamic engine
// inserts one site per call.
//
// # The fence lemma
//
// Let the universe be w wide and h high, and m = w + h (1 when both are 0).
// The fence sites sit 3m left and right of the universe's centre and 2m
// below it, and 3m above it. So the fence triangle's edges pass at least
// 1.5m outside the universe, and every fence site lies at least 2.5m from
// it. Every point of the universe lies within √(w²+h²) ≤ m of every user
// site, which lies in the universe too. Hence every location of the universe
// is strictly nearer a user site than any fence site, and there:
//
//   - a user site's Voronoi cell, clipped to the universe, is its cell in
//     the diagram of the user sites alone, and a fence site's is empty;
//   - every cell boundary, and so every bisector a walk or a cell clip
//     inside the universe crosses, is the bisector of two user sites.
//
// A fence edge can stand where the user sites' own triangulation has a thin
// hull triangle whose circumcircle reaches a fence site, but the cells it
// separates meet only outside the universe. Fence edges change routes
// through the graph, never a cell boundary inside the universe.
package delaunay

import (
	"errors"
	"fmt"

	"repro/internal/geom"
)

var (
	// ErrNoPoints is returned by Build for an empty input.
	ErrNoPoints = errors.New("delaunay: no input points")
	// ErrDuplicateSite is returned by Bulk and Build for an input with two
	// points at the same coordinates.
	ErrDuplicateSite = errors.New("delaunay: duplicate site")
)

// Bulk triangulates pts inside a fence around bounds, which must contain
// every point: it inserts the points into one Dynamic, in the order order
// lists their indexes (every index once; nil is slice order), each walk
// starting at the previous insertion. The result is relabelled so that
// pts[i] is site i and the fence sites are n, n+1 and n+2, for n = len(pts):
// sites holds pts followed by the fence sites, and the neighbors of site v
// are nbrs[off[v]:off[v+1]], counterclockwise. A triangulation whose outer
// face is the fence triangle has 3(n+3)−6 edges, so nbrs has 6(n+3)−12
// entries. sites, off and nbrs are new.
func Bulk(pts []geom.Point, bounds geom.Rect, order []int32) (sites []geom.Point, off, nbrs []int32, err error) {
	n := len(pts)
	d := newDynamic(bounds, n)
	// label takes an insertion's id to the caller's: the fence sites first,
	// then the points in insertion order.
	label := make([]int32, 0, n+FirstSiteID)
	label = append(label, int32(n), int32(n+1), int32(n+2))
	for k := range n {
		i := int32(k)
		if order != nil {
			i = order[k]
		}
		if _, inserted, err := d.InsertSite(pts[i]); err != nil {
			return nil, nil, nil, err
		} else if !inserted {
			return nil, nil, nil, fmt.Errorf("%w: %v", ErrDuplicateSite, pts[i])
		}
		label = append(label, i)
	}
	id := make([]int32, len(label)) // the inverse: caller's id to insertion's
	for v, u := range label {
		id[u] = int32(v)
	}
	sites = append(append(make([]geom.Point, 0, n+FirstSiteID), pts...), d.pts[:FirstSiteID]...)
	off = make([]int32, len(label)+1)
	nbrs = make([]int32, 0, 6*len(label)-12)
	for u, v := range id {
		from := len(nbrs)
		nbrs = d.AppendNeighbors(int(v), nbrs)
		for j := from; j < len(nbrs); j++ {
			nbrs[j] = label[nbrs[j]]
		}
		off[u+1] = int32(len(nbrs))
	}
	return sites, off, nbrs, nil
}

// Triangulation is the Delaunay triangulation of a point set as Build
// leaves it: each site's user neighbors, in counterclockwise order. It is
// immutable and safe for concurrent readers.
type Triangulation struct {
	pts       []geom.Point
	off, nbrs []int32
}

// Build triangulates pts with Bulk, fenced by their bounding rectangle, in
// slice order, and drops the fence sites from every ring. Where the fence
// replaced a thin hull triangle, two hull sites are then not neighbors;
// package voronoi states where cells read off the rings are exact.
func Build(pts []geom.Point) (*Triangulation, error) {
	if len(pts) == 0 {
		return nil, ErrNoPoints
	}
	sites, off, nbrs, err := Bulk(pts, geom.RectFromPoints(pts...), nil)
	if err != nil {
		return nil, err
	}
	// Compact each ring in place: a ring never grows, so every write lands
	// at or before the entry being read.
	n, w, lo := len(pts), 0, int32(0)
	for v := range n {
		hi := off[v+1]
		for _, nb := range nbrs[lo:hi] {
			if int(nb) < n {
				nbrs[w] = nb
				w++
			}
		}
		lo, off[v+1] = hi, int32(w)
	}
	return &Triangulation{pts: sites[:n:n], off: off[:n+1], nbrs: nbrs[:w]}, nil
}

// NumSites returns the number of sites.
func (t *Triangulation) NumSites() int { return len(t.pts) }

// Point returns the coordinates of site i.
func (t *Triangulation) Point(i int) geom.Point { return t.pts[i] }

// Neighbors returns the Delaunay (equivalently Voronoi) neighbors of site i,
// in counterclockwise rotational order. The returned slice aliases internal
// storage and must not be modified.
func (t *Triangulation) Neighbors(i int) []int32 { return t.nbrs[t.off[i]:t.off[i+1]] }
