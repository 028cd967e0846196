package core

import (
	"cmp"
	"slices"
)

// This file is the gather half of scatter-gather, shared by the engines
// that answer one query from several partition engines — the in-process
// sharded engine and the remote fan-out client. Their scatter halves (a
// worker pool; HTTP with retries) differ and live with them.

// PartitionMethod maps the caller's method to the one an engine holding
// only part of the dataset executes. A partition's Voronoi diagram is a
// sub-sample of the dataset's, so its cells are larger and its Delaunay
// segments longer, and the published segment rule can step over a thin
// lobe of a concave query and strand a result island. VoronoiBFS therefore
// upgrades to the strict cell-intersection expansion, which is complete at
// any density; every other method passes through.
func PartitionMethod(m Method) Method {
	if m == VoronoiBFS {
		return VoronoiBFSStrict
	}
	return m
}

// MergeSorted concatenates per-partition global id slices into dst
// (reusing its capacity; pass nil for a fresh slice) and sorts them
// ascending, the canonical result order of partitioned engines. An empty
// result with a reuse buffer returns dst[:0], not nil — the unpartitioned
// engines' Dest contract.
func MergeSorted(dst []int64, parts [][]int64) []int64 {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		if dst == nil {
			return nil
		}
		return dst[:0]
	}
	dst = slices.Grow(dst[:0], total)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	slices.Sort(dst)
	return dst
}

// Finalize sets the result-dependent counters of an aggregate after the
// gather step (merging, Limit truncation and CountOnly capping change the
// effective result size).
func (s *Stats) Finalize(resultSize int) {
	s.ResultSize = resultSize
	s.RedundantValidations = s.Candidates - resultSize
}

// Neighbor is one candidate of a partitioned k-nearest-neighbor query: a
// global id and its squared distance to the query point.
type Neighbor struct {
	ID int64
	D2 float64
}

// MergeNearest is the gather step of a partitioned KNearest: after a
// partition's answers were appended to best, order the candidates by
// (distance, ascending global id) and keep the k nearest.
func MergeNearest(best []Neighbor, k int) []Neighbor {
	slices.SortFunc(best, func(a, b Neighbor) int {
		if c := cmp.Compare(a.D2, b.D2); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	if len(best) > k {
		best = best[:k]
	}
	return best
}
