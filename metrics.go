package vaq

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/storage"
)

// Flavor labels used in metric names and traces: one per Querier backend.
// DynamicEngine and its Snapshots share "dynamic" — a Snapshot query is a
// dynamic-engine query pinned to an epoch, not a distinct backend.
const (
	flavorStatic  = "static"
	flavorSharded = "sharded"
	flavorDynamic = "dynamic"
	flavorRemote  = "remote"
)

// MetricsRegistry collects engine metrics: atomic counters, gauges and
// latency histograms with percentile snapshots. One registry may be shared
// by any number of engines of any flavor — per-query counters carry
// {flavor=...,method=...} labels in their names and aggregate across
// engines of the same flavor, while snapshot-time collectors (buffer pool,
// dynamic epoch) reflect the most recently constructed engine of each
// flavor. Read it with Snapshot or serve it over HTTP with
// MetricsHandler. All methods are safe for concurrent use; a nil registry
// is inert.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is a point-in-time copy of a registry's metrics:
// counters, gauges, and histogram summaries (count/mean/p50/p90/p99/max).
type MetricsSnapshot = obs.Snapshot

// QueryTrace records the timeline of one traced query — its total time and
// the phases candidate generation, BFS expansion, page fetches, merge —
// plus the fan-out marker. It is the per-query clock (Stats counts work
// only); across many queries, WithMetrics' vaq_query_latency_ns is. Attach
// one to a query with WithTraceInto and read it (or log its String
// one-liner) after the call returns. A QueryTrace may be reused across
// queries: each traced query resets it.
type QueryTrace = obs.QueryTrace

// NewMetricsRegistry returns an empty metrics registry for WithMetrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricsHandler serves reg over HTTP: an expvar-compatible JSON snapshot
// by default, or Prometheus text exposition with ?format=prom (or an
// Accept header preferring text/plain). Mount it anywhere:
//
//	reg := vaq.NewMetricsRegistry()
//	eng, _ := vaq.NewEngine(points, bounds, vaq.WithMetrics(reg))
//	http.Handle("/metrics", vaq.MetricsHandler(reg))
func MetricsHandler(reg *MetricsRegistry) http.Handler { return obs.Handler(reg) }

// WithMetrics instruments the engine under construction with reg: query
// counts, latencies, errors and cancellations by method; batch, worker-pool
// and scatter-gather behavior (fan-out, pruned partitions, per-partition
// latency — one partition on a static engine built by NewEngine and on a
// dynamic epoch); and snapshot-time collectors lifting the buffer pool and
// (for dynamic engines) epoch state. Without this option — or
// with a nil reg — the engine runs fully uninstrumented: the disabled path
// costs one nil pointer comparison per query, no atomics.
func WithMetrics(reg *MetricsRegistry) Option {
	return func(c *config) { c.metrics = reg }
}

// numMethodSlots is the per-method metric fan: the four known methods plus
// one shared "other" slot for out-of-range Method values.
const numMethodSlots = 5

// methodSlot maps a Method to its metric slot.
func methodSlot(m Method) int {
	if m >= 0 && int(m) < numMethodSlots-1 {
		return int(m)
	}
	return numMethodSlots - 1
}

// methodLabel returns the label value of a metric slot.
func methodLabel(slot int) string {
	if slot < numMethodSlots-1 {
		return Method(slot).String()
	}
	return "other"
}

// queryMetrics is one engine's pre-resolved handle set into a registry:
// every per-query metric is looked up once at construction so the query
// hot path touches only atomics. A nil *queryMetrics disables everything
// (all methods are nil-safe).
type queryMetrics struct {
	queries       [numMethodSlots]*obs.Counter
	errs          [numMethodSlots]*obs.Counter
	cancels       [numMethodSlots]*obs.Counter
	latency       [numMethodSlots]*obs.Histogram
	candidates    [numMethodSlots]*obs.Counter
	results       [numMethodSlots]*obs.Counter
	recordsLoaded [numMethodSlots]*obs.Counter

	batches      *obs.Counter
	batchLatency *obs.Histogram
}

// newQueryMetrics resolves the per-query metric handles for one flavor.
// Same-name metrics are shared registry-wide, so two engines of one flavor
// on one registry aggregate naturally.
func newQueryMetrics(reg *obs.Registry, flavor string) *queryMetrics {
	if reg == nil {
		return nil
	}
	qm := &queryMetrics{}
	for slot := 0; slot < numMethodSlots; slot++ {
		lbl := fmt.Sprintf("{flavor=%q,method=%q}", flavor, methodLabel(slot))
		qm.queries[slot] = reg.Counter("vaq_queries_total" + lbl)
		qm.errs[slot] = reg.Counter("vaq_query_errors_total" + lbl)
		qm.cancels[slot] = reg.Counter("vaq_query_cancellations_total" + lbl)
		qm.latency[slot] = reg.Histogram("vaq_query_latency_ns" + lbl)
		qm.candidates[slot] = reg.Counter("vaq_query_candidates_total" + lbl)
		qm.results[slot] = reg.Counter("vaq_query_results_total" + lbl)
		qm.recordsLoaded[slot] = reg.Counter("vaq_query_records_loaded_total" + lbl)
	}
	fl := fmt.Sprintf("{flavor=%q}", flavor)
	qm.batches = reg.Counter("vaq_batches_total" + fl)
	qm.batchLatency = reg.Histogram("vaq_batch_latency_ns" + fl)
	return qm
}

// observe records one completed query: count, latency, the work counters
// from its Stats, and the error classification (context cancellation and
// deadline expiry count as cancellations, everything else as errors).
func (qm *queryMetrics) observe(m Method, d time.Duration, st *Stats, err error) {
	if qm == nil {
		return
	}
	slot := methodSlot(m)
	qm.queries[slot].Inc()
	qm.latency[slot].Observe(d)
	qm.addWork(slot, st)
	qm.countOutcome(slot, err)
}

// observeBatch records one completed QueryAll: the batch itself (count and
// wall-clock latency), its n submitted queries, and the aggregate work
// counters. Per-query latency is not observed for batch members — their
// durations overlap on the worker pool; vaq_batch_latency_ns holds the
// batch wall clock instead.
func (qm *queryMetrics) observeBatch(m Method, n int, d time.Duration, st *Stats, err error) {
	if qm == nil {
		return
	}
	slot := methodSlot(m)
	qm.batches.Inc()
	qm.batchLatency.Observe(d)
	qm.queries[slot].Add(uint64(n))
	qm.addWork(slot, st)
	qm.countOutcome(slot, err)
}

func (qm *queryMetrics) addWork(slot int, st *Stats) {
	qm.candidates[slot].Add(uint64(st.Candidates))
	qm.results[slot].Add(uint64(st.ResultSize))
	qm.recordsLoaded[slot].Add(uint64(st.RecordsLoaded))
}

func (qm *queryMetrics) countOutcome(slot int, err error) {
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		qm.cancels[slot].Inc()
	default:
		qm.errs[slot].Inc()
	}
}

// newShardMetrics resolves the kernel's scatter and worker-pool series for
// one flavor (nil when uninstrumented).
func newShardMetrics(reg *obs.Registry, flavor string) *shard.Metrics {
	return shard.NewMetrics(reg, fmt.Sprintf("{flavor=%q}", flavor))
}

// registerPoolMetrics lifts the cumulative BufferPoolStats of a store-backed
// engine's shards into the registry as snapshot-time collectors: the pools
// keep their existing counters and pay nothing new on the hot path; each
// registry snapshot reads them through stats.
func registerPoolMetrics(reg *obs.Registry, flavor string, stats func() storage.BufferPoolStats) {
	fl := fmt.Sprintf("{flavor=%q}", flavor)
	reg.RegisterGaugeFunc("vaq_bufpool_page_reads_total"+fl, func() float64 { return float64(stats().PageReads) })
	reg.RegisterGaugeFunc("vaq_bufpool_cache_hits_total"+fl, func() float64 { return float64(stats().CacheHits) })
	reg.RegisterGaugeFunc("vaq_bufpool_evictions_total"+fl, func() float64 { return float64(stats().Evictions) })
	reg.RegisterGaugeFunc("vaq_bufpool_bytes_read_total"+fl, func() float64 { return float64(stats().BytesRead) })
	reg.RegisterGaugeFunc("vaq_bufpool_hit_rate"+fl, func() float64 { return stats().HitRate() })
}

// registerDynamicMetrics attaches the epoch-publish histogram and the
// epoch/snapshot-age collectors of one dynamic engine. The epoch gauge is
// also the point count — every accepted insert bumps the epoch by one.
func registerDynamicMetrics(reg *obs.Registry, d *core.DynamicEngine) {
	fl := fmt.Sprintf("{flavor=%q}", flavorDynamic)
	d.SetPublishMetrics(reg.Histogram("vaq_dynamic_publish_latency_ns" + fl))
	reg.RegisterGaugeFunc("vaq_dynamic_epoch"+fl, func() float64 { return float64(d.Len()) })
	reg.RegisterGaugeFunc("vaq_dynamic_snapshot_age_seconds"+fl, func() float64 {
		t, ok := d.LastPublish()
		if !ok {
			return 0
		}
		return time.Since(t).Seconds()
	})
}
