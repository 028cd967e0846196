package shard

import (
	"context"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
)

// KNearest returns the k stored points nearest to q in increasing
// distance order (ties broken by ascending global id), computed by a
// multi-shard frontier: shards are visited in increasing MINDIST(q,
// shard bounds) order, and the walk stops as soon as the next shard's
// bounds cannot beat the current k-th distance — every unvisited shard is
// then provably unable to contribute. Within each shard the per-shard
// engine runs the exact Voronoi expansion of the unsharded engine.
//
// ctx is checked before the walk starts and again before every shard
// expansion (on top of the per-shard engine's own candidate-boundary
// checks), so cancellation abandons the remaining frontier and surfaces
// as ctx.Err() with the statistics of the shards already expanded.
func (e *Engine) KNearest(ctx context.Context, q geom.Point, k int) ([]int64, core.Stats, error) {
	var stats core.Stats
	if e.Len() == 0 {
		// Unreachable through New (which rejects empty point sets) but kept
		// for parity with core.Engine.KNearest's empty-data contract.
		return nil, stats, core.ErrNoData
	}
	if k <= 0 {
		return nil, stats, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}

	// Frontier order: shards by squared MINDIST to q.
	order := make([]int, len(e.shards))
	mindist := make([]float64, len(e.shards))
	for si := range e.shards {
		order[si] = si
		mindist[si] = e.shards[si].bounds.Dist2Point(q)
	}
	sort.Slice(order, func(a, b int) bool { return mindist[order[a]] < mindist[order[b]] })

	var best []core.Neighbor
	for _, si := range order {
		// Expansion test: a shard whose MINDIST exceeds the current k-th
		// distance cannot improve the result, and neither can any shard
		// after it in the frontier order. Equal distance still expands, so
		// boundary ties are never dropped.
		if len(best) == k && mindist[si] > best[k-1].D2 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		s := &e.shards[si]
		local, st, err := s.eng.KNearest(ctx, q, k)
		stats.Add(st)
		if err != nil {
			return nil, stats, err
		}
		for _, id := range local {
			gid := s.global[id]
			best = append(best, core.Neighbor{ID: gid, D2: q.Dist2(e.points[gid])})
		}
		best = core.MergeNearest(best, k)
	}

	out := make([]int64, len(best))
	for i, c := range best {
		out[i] = c.ID
	}
	stats.ResultSize = len(out)
	return out, stats, nil
}
