// Package obs is a dependency-free observability layer: a metrics
// registry of atomic counters, gauges, and fixed-bucket latency
// histograms with quantile snapshots, plus a lightweight per-query
// trace facility (see QueryTrace).
//
// Every metric method is safe to call on a nil receiver and every
// Registry accessor is safe to call on a nil Registry, so callers can
// hold plain pointers and skip instrumentation entirely by leaving
// them nil: the disabled path is one pointer comparison — no
// allocation, no atomic traffic. All enabled-path updates are plain
// atomics and are safe under the race detector.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A Counter is a monotonically increasing uint64, padded to a cache
// line so adjacent counters do not false-share.
type Counter struct {
	v atomic.Uint64
	_ [56]byte
}

// Inc adds 1. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge is an int64 level moved by Add, padded to a cache line.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Add adds d (which may be negative). No-op on a nil receiver.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current level; 0 on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram buckets: values below 1<<histSubBits are recorded exactly;
// above that, each power-of-two octave is split into 1<<histSubBits
// sub-buckets (≈12.5% relative resolution), clamped at 2^histMaxBits.
// For latency in nanoseconds the clamp is ≈4.9 hours.
const (
	histSubBits    = 3
	histSubBuckets = 1 << histSubBits
	histMaxBits    = 44
	histNumBuckets = (histMaxBits - histSubBits + 1) * histSubBuckets
)

// bucketIndex maps a value to its bucket. Values ≥ 2^histMaxBits fall
// into the top bucket.
func bucketIndex(v uint64) int {
	if v < histSubBuckets {
		return int(v)
	}
	n := bits.Len64(v)
	if n > histMaxBits {
		return histNumBuckets - 1
	}
	shift := uint(n - 1 - histSubBits)
	sub := (v >> shift) & (histSubBuckets - 1)
	return (n-histSubBits)<<histSubBits + int(sub)
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i < histSubBuckets {
		return uint64(i), uint64(i) + 1
	}
	shift := uint(i>>histSubBits) - 1
	lo = uint64(histSubBuckets+i&(histSubBuckets-1)) << shift
	return lo, lo + 1<<shift
}

// A Histogram records a value distribution in fixed log-spaced buckets
// (~12.5% relative resolution) and reports interpolated quantiles.
// Latency histograms record nanoseconds via Observe; count
// distributions (e.g. scatter fan-out) record raw values via ObserveN.
// Concurrent Observe/Snapshot are safe; Snapshot is not a linearizable
// cut across buckets, which is fine for monitoring.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histNumBuckets]atomic.Uint64
}

// Observe records a duration in nanoseconds. Negative durations clamp
// to zero. No-op on a nil receiver.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	v := d.Nanoseconds()
	if v < 0 {
		v = 0
	}
	h.observe(uint64(v))
}

// ObserveN records a raw (unit-less) value. No-op on a nil receiver.
func (h *Histogram) ObserveN(v uint64) {
	if h == nil {
		return
	}
	h.observe(v)
}

func (h *Histogram) observe(v uint64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Reset zeroes the histogram. It is not atomic with respect to
// concurrent observers; intended for benchmark reuse between rounds.
// No-op on a nil receiver.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Snapshot copies the current distribution; the copy supports quantile
// queries without further synchronization. A nil receiver yields an
// empty snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.counts = make([]uint64, histNumBuckets)
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.counts[i] = c
		s.Count += c
	}
	// Recompute Count from the buckets (not h.count) so the snapshot is
	// internally consistent even when racing observers.
	s.Sum = h.sum.Load()
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count  uint64
	Sum    uint64
	counts []uint64
}

// Mean returns the average observed value, 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the interpolated q-quantile (q in [0,1]) in the
// observed unit (nanoseconds for Observe-fed histograms), 0 when
// empty. Accuracy is bounded by the bucket resolution (~12.5%).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i, c := range s.counts {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if cum+fc >= target {
			lo, hi := bucketBounds(i)
			return float64(lo) + (target-cum)/fc*float64(hi-lo)
		}
		cum += fc
	}
	return s.Max()
}

// Max returns the upper bound of the highest occupied bucket (an
// overestimate of the true max by at most the bucket width), 0 when
// empty.
func (s HistogramSnapshot) Max() float64 {
	for i := len(s.counts) - 1; i >= 0; i-- {
		if s.counts[i] != 0 {
			_, hi := bucketBounds(i)
			return float64(hi)
		}
	}
	return 0
}

// A Registry names and owns metrics. Metric lookups are get-or-create:
// two callers asking for the same name share one instance, which is
// how per-flavor aggregation across engines works. Metric names follow
// the Prometheus convention with inline labels, e.g.
//
//	vaq_queries_total{flavor="static",method="voronoi"}
//
// The zero value is NOT ready; use NewRegistry. All methods are safe
// on a nil *Registry (lookups return nil metrics, Snapshot returns an
// empty snapshot), so a nil registry disables instrumentation.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter       // guarded by mu
	gauges   map[string]*Gauge         // guarded by mu
	hists    map[string]*Histogram     // guarded by mu
	funcs    map[string]func() float64 // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() float64),
	}
}

// Counter returns the named counter, creating it on first use. Nil on
// a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterGaugeFunc registers fn as a snapshot-time gauge: it is
// called (outside the registry lock) on every Snapshot and its result
// reported under name. Registering the same name again replaces the
// previous function — this is how existing cumulative stats structs
// (buffer pool, dynamic epoch) are lifted into the
// registry without adding atomics to their hot paths. No-op on a nil
// registry.
func (r *Registry) RegisterGaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// HistogramStats is the snapshot form of one histogram: count, sum,
// and interpolated percentiles in the observed unit (ns for latency
// histograms).
type HistogramStats struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Stats summarizes a HistogramSnapshot.
func (s HistogramSnapshot) Stats() HistogramStats {
	return HistogramStats{
		Count: s.Count,
		Sum:   float64(s.Sum),
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		Max:   s.Max(),
	}
}

// Snapshot is a point-in-time copy of every metric in a registry.
// Gauges merges real gauges and registered gauge functions.
type Snapshot struct {
	Counters   map[string]uint64         `json:"counters"`
	Gauges     map[string]float64        `json:"gauges"`
	Histograms map[string]HistogramStats `json:"histograms"`
}

// Names returns all metric names in the snapshot, sorted.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot captures every counter, gauge, gauge function, and
// histogram. Gauge functions run outside the registry lock (they may
// themselves take locks, e.g. buffer-pool shard mutexes). An empty
// snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramStats{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	funcs := make(map[string]func() float64, len(r.funcs))
	for n, f := range r.funcs {
		funcs[n] = f
	}
	r.mu.Unlock()

	for n, c := range counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		s.Gauges[n] = float64(g.Value())
	}
	for n, f := range funcs {
		s.Gauges[n] = f()
	}
	for n, h := range hists {
		s.Histograms[n] = h.Snapshot().Stats()
	}
	return s
}
