package vaq

import (
	"context"
	"encoding/binary"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rcache"
)

// ResultCache memoizes Query results across repeated identical queries —
// the win on skewed real traffic, where most queries hammer a few hot
// regions. Attach one to any engine flavor with WithResultCache; one cache
// may be shared by several engines (entries never cross engines — every
// key embeds a per-engine salt).
//
// Keying and invalidation: an entry is keyed by the exact geometry of the
// region (its canonical byte encoding), the resolved query options that
// change the result or its cost (method, CountOnly), and the engine's
// epoch. Static Engine and ShardedEngine are immutable, so their epoch is
// constant; DynamicEngine and Snapshot key by their insert epoch, so every
// Insert invalidates by construction — a query after an insert builds a
// different key, misses, and the stale entry ages out of the LRU.
//
// Scope: the cache serves Query (and Count, which runs through Query).
// Limited queries (Limit > 0) bypass — which n ids come back is
// method-dependent, so memoizing one execution's choice would pin it.
// Regions without a canonical encoding (custom Region implementations)
// bypass too, and so does a partial answer a degraded RemoteEngine gave
// while a backend was down (Stats.PartitionsDropped > 0). Each streams and QueryAll batches without consulting the
// cache. On a hit, WithStatsInto receives the memoized statistics of the
// execution that populated the entry.
//
// When not to use it: workloads of unique, never-repeated regions only pay
// the keying and bookkeeping overhead (every lookup misses), and
// write-heavy DynamicEngine workloads churn the epoch so fast that entries
// rarely get a second hit before invalidation.
//
// A ResultCache is safe for concurrent use; it shards its LRU state over
// the same power-of-two lock-shard pattern as the store's buffer pool.
type ResultCache struct {
	c *rcache.Cache
}

// NewResultCache returns a result cache holding up to capacity memoized
// query results. capacity <= 0 stores nothing (every lookup misses) —
// useful as an always-cold baseline in benchmarks.
func NewResultCache(capacity int) *ResultCache {
	return &ResultCache{c: rcache.New(capacity)}
}

// CacheStats are a ResultCache's cumulative counters. Bypasses counts
// queries the cache refused to memoize (Limit set, an unkeyable region, or
// a degraded partial answer); HitRate() is Hits / (Hits + Misses).
type CacheStats = rcache.Counters

// Stats returns a snapshot of the cache's hit/miss/evict/bypass counters.
func (rc *ResultCache) Stats() CacheStats { return rc.c.Counters() }

// Len returns the number of memoized results currently held.
func (rc *ResultCache) Len() int { return rc.c.Len() }

// Capacity returns the entry budget.
func (rc *ResultCache) Capacity() int { return rc.c.Capacity() }

// Resize sets the entry budget, evicting down to it immediately.
func (rc *ResultCache) Resize(capacity int) { rc.c.Resize(capacity) }

// Reset drops every memoized result and zeroes the counters.
func (rc *ResultCache) Reset() { rc.c.Reset() }

// WithResultCache attaches rc to the engine under construction (NewEngine,
// NewShardedEngine, NewDynamicEngine — a DynamicEngine's Snapshots
// inherit it). See ResultCache for keying, invalidation and scope. A nil
// rc leaves caching off.
func WithResultCache(rc *ResultCache) Option {
	return func(c *config) { c.rcache = rc }
}

// cacheSaltCounter issues one salt per constructed engine, so engines
// sharing a ResultCache can never collide on a key.
var cacheSaltCounter atomic.Uint64

func nextCacheSalt() uint64 { return cacheSaltCounter.Add(1) }

// appendQueryKey builds the cache key of one query: engine salt, epoch,
// the result-shaping options, then the region's canonical geometry.
// Returns nil when the region is not keyable.
func appendQueryKey(dst []byte, salt, epoch uint64, p *queryPlan, region Region) []byte {
	ck, ok := region.(core.CacheKeyer)
	if !ok {
		return nil
	}
	dst = binary.LittleEndian.AppendUint64(dst, salt)
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	countOnly := byte(0)
	if p.CountOnly {
		countOnly = 1
	}
	dst = append(dst, byte(p.Method), countOnly)
	return ck.AppendCacheKey(dst)
}

// cachedQuery answers one region in canonical ascending order: from the
// result cache when the engine has one and holds the query's key, and from
// the backend otherwise — memoizing the answer under that key, or counting
// a bypass when the query is not cacheable (Limit set, unkeyable region,
// degraded partial answer). The returned Stats describe the execution the
// caller observed — the memoized statistics on a hit — so hits are
// byte-identical to what the backend would have returned. Without a cache
// this is one nil comparison ahead of the backend: nothing allocated, no
// clock read.
func (q *querier) cachedQuery(ctx context.Context, region Region, p *queryPlan) ([]int64, Stats, error) {
	var key string // set when the answer is to be memoized
	if q.rc != nil {
		tr := p.Trace
		var lookupStart time.Time
		if tr != nil {
			lookupStart = time.Now()
		}
		var kb []byte
		if p.Limit <= 0 {
			kb = appendQueryKey(make([]byte, 0, 128), q.cacheSalt, q.epoch, p, region)
		}
		if kb == nil {
			q.rc.c.AddBypass()
		} else {
			key = string(kb)
			ent, ok := q.rc.c.Get(key)
			if tr != nil {
				tr.Add(obs.PhaseCacheLookup, time.Since(lookupStart))
			}
			if ok {
				tr.MarkCacheHit()
				if p.CountOnly {
					return nil, ent.Stats, nil
				}
				return append(p.Dest[:0], ent.IDs...), ent.Stats, nil
			}
		}
	}
	ids, st, err := q.backend.QueryRegionSpec(ctx, region, p.QuerySpec)
	if err != nil {
		return nil, st, err
	}
	core.SortIDs(ids)
	if key == "" {
		return ids, st, nil
	}
	if st.PartitionsDropped != 0 {
		// A partial answer served while a partition was down must not
		// outlive the outage.
		q.rc.c.AddBypass()
		return ids, st, nil
	}
	ent := rcache.Entry{Stats: st}
	if !p.CountOnly {
		// Own the memoized ids: ids may alias a caller's Reuse buffer.
		ent.IDs = append([]int64(nil), ids...)
	}
	q.rc.c.Put(key, ent)
	return ids, st, nil
}
