package shard

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
)

// Neighbor is one candidate of a partitioned k-nearest-neighbor query: a
// global id and its squared distance to the query point.
type Neighbor struct {
	ID int64
	D2 float64
}

// mergeNearest orders the candidates by (distance, ascending global id)
// and keeps the k nearest.
func mergeNearest(best []Neighbor, k int) []Neighbor {
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

// KNearest returns the k stored points nearest to q in increasing
// distance order (ties broken by ascending global id), computed by a
// frontier over the partitions: they are visited in increasing MINDIST(q,
// partition bounds) order (unknown bounds count as distance 0), and the
// walk stops as soon as the next partition's bounds cannot beat the
// current k-th distance — every unvisited partition is then provably
// unable to contribute. Each partition answers with its own exact k
// nearest.
//
// ctx is checked before the walk starts and again before every expansion,
// so cancellation abandons the remaining frontier and surfaces as
// ctx.Err() with the statistics of the partitions already expanded. Under
// the degraded policy a failed partition is dropped, unless every expanded
// one failed.
func (e *Engine) KNearest(ctx context.Context, q geom.Point, k int) ([]int64, core.Stats, error) {
	var stats core.Stats
	if e.length == 0 {
		return nil, stats, core.ErrNoData
	}
	if k <= 0 {
		return nil, stats, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}

	// Frontier order: non-empty partitions by squared MINDIST to q.
	order := make([]int, 0, len(e.parts))
	mindist := make([]float64, len(e.parts))
	for pi, p := range e.parts {
		if p.Len() == 0 {
			continue
		}
		order = append(order, pi)
		if b := e.partBounds[pi]; !b.IsEmpty() {
			mindist[pi] = b.Dist2Point(q)
		}
	}
	sort.Slice(order, func(a, b int) bool { return mindist[order[a]] < mindist[order[b]] })

	var (
		best             []Neighbor
		expanded, failed int
		lastErr          error
	)
	for _, pi := range order {
		// Expansion test: a partition whose MINDIST exceeds the current
		// k-th distance cannot improve the result, and neither can any
		// after it in the frontier order. Equal distance still expands, so
		// boundary ties are never dropped.
		if len(best) == k && mindist[pi] > best[k-1].D2 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		expanded++
		var (
			st  core.Stats
			err error
		)
		best, st, err = e.parts[pi].KNearest(ctx, q, k, best)
		stats.Add(st)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, stats, cerr
			}
			lastErr = fmt.Errorf("shard: %w", e.partErr(pi, err))
			if !e.degraded {
				return nil, stats, lastErr
			}
			failed++
			continue
		}
		best = mergeNearest(best, k)
	}
	if failed > 0 {
		if failed == expanded {
			return nil, stats, lastErr
		}
		stats.PartitionsDropped = failed
		e.dropped.Add(uint64(failed))
	}

	out := make([]int64, len(best))
	for i, c := range best {
		out[i] = c.ID
	}
	stats.ResultSize = len(out)
	return out, stats, nil
}
