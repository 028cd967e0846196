package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Add(7)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(time.Second)
	h.ObserveN(3)
	h.Reset()
	if s := h.Snapshot(); s.Count != 0 || s.Quantile(0.5) != 0 || s.Max() != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry returned a metric")
	}
	r.RegisterGaugeFunc("x", func() float64 { return 1 })
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var tr *QueryTrace
	tr.Begin("f", "m")
	tr.Add(PhaseSeed, time.Second)
	tr.Finish(time.Second, 1, 1)
	tr.SetFanOut(3)
	if tr.Total() != 0 || tr.Phase(PhaseSeed) != 0 || tr.FanOut() != 0 || tr.String() == "" {
		t.Fatal("nil trace not inert")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	if r.Counter("c") != c {
		t.Fatal("Counter is not get-or-create")
	}
	g := r.Gauge("g")
	g.Add(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("gauge = %d, want 3", g.Value())
	}
	r.RegisterGaugeFunc("fn", func() float64 { return 2.5 })
	s := r.Snapshot()
	if s.Counters["c"] != 10 || s.Gauges["g"] != 3 || s.Gauges["fn"] != 2.5 {
		t.Fatalf("snapshot mismatch: %+v", s)
	}
	if got := s.Names(); len(got) != 3 || got[0] != "c" || got[1] != "fn" || got[2] != "g" {
		t.Fatalf("Names() = %v", got)
	}
}

func TestBucketRoundTrip(t *testing.T) {
	// Every bucket's bounds must map back to that bucket, and bucket
	// ranges must tile the value space without gaps.
	var prevHi uint64
	for i := 0; i < histNumBuckets; i++ {
		lo, hi := bucketBounds(i)
		if i > 0 && lo != prevHi {
			t.Fatalf("bucket %d: lo=%d, want %d (gap or overlap)", i, lo, prevHi)
		}
		prevHi = hi
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(lo=%d) = %d, want %d", lo, got, i)
		}
		if got := bucketIndex(hi - 1); got != i {
			t.Fatalf("bucketIndex(hi-1=%d) = %d, want %d", hi-1, got, i)
		}
	}
	if got := bucketIndex(math.MaxUint64); got != histNumBuckets-1 {
		t.Fatalf("overflow value mapped to bucket %d, want top", got)
	}
}

func TestHistogramSmallValuesExact(t *testing.T) {
	h := new(Histogram)
	// Values 0..7 land in exact unit buckets, so quantiles are exact.
	for v := uint64(0); v < 8; v++ {
		h.ObserveN(v)
	}
	s := h.Snapshot()
	if s.Count != 8 || s.Sum != 28 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
	// The q-quantile of {0..7} under our ceil-rank rule is
	// ceil(q*8)-1 plus intra-bucket interpolation within a width-1
	// bucket; spot-check monotone, bounded values.
	for _, tc := range []struct{ q, min, max float64 }{
		{0.0, 0, 1},
		{0.5, 3, 4},
		{1.0, 7, 8},
	} {
		got := s.Quantile(tc.q)
		if got < tc.min || got > tc.max {
			t.Errorf("Quantile(%.2f) = %g, want in [%g,%g]", tc.q, got, tc.min, tc.max)
		}
	}
}

func TestHistogramPercentilesKnownDistributions(t *testing.T) {
	// Uniform 1..100_000 ns: p50 ≈ 50_000, p90 ≈ 90_000, p99 ≈ 99_000,
	// within the ~12.5% bucket resolution.
	h := new(Histogram)
	for v := 1; v <= 100000; v++ {
		h.Observe(time.Duration(v) * time.Nanosecond)
	}
	s := h.Snapshot()
	if s.Count != 100000 {
		t.Fatalf("count = %d", s.Count)
	}
	check := func(q, want float64) {
		got := s.Quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.13 {
			t.Errorf("uniform: Quantile(%.2f) = %g, want ≈%g (rel err %.3f)", q, got, want, rel)
		}
	}
	check(0.50, 50000)
	check(0.90, 90000)
	check(0.99, 99000)
	if p50, p90, p99 := s.Quantile(.5), s.Quantile(.9), s.Quantile(.99); p50 > p90 || p90 > p99 {
		t.Errorf("quantiles not monotone: %g %g %g", p50, p90, p99)
	}
	if mean := s.Mean(); math.Abs(mean-50000.5) > 1 {
		t.Errorf("mean = %g, want 50000.5", mean)
	}

	// Bimodal: 99 fast ops at 1µs, 1 slow at 1ms. p50 sits in the fast
	// mode, p99 within bucket resolution of either mode's boundary, max
	// bounds the slow mode.
	h2 := new(Histogram)
	for i := 0; i < 99; i++ {
		h2.Observe(time.Microsecond)
	}
	h2.Observe(time.Millisecond)
	s2 := h2.Snapshot()
	if p50 := s2.Quantile(0.5); p50 < 1000*0.875 || p50 > 1000*1.125 {
		t.Errorf("bimodal p50 = %g, want ≈1000", p50)
	}
	// rank ceil(0.99*100)=99 is still the fast mode's last sample.
	if p99 := s2.Quantile(0.99); p99 > 1000*1.125 {
		t.Errorf("bimodal p99 = %g, want within fast mode", p99)
	}
	if p999 := s2.Quantile(0.999); p999 < 1e6*0.875 {
		t.Errorf("bimodal p99.9 = %g, want ≈1e6", p999)
	}
	if max := s2.Max(); max < 1e6 || max > 1e6*1.125+1 {
		t.Errorf("bimodal max = %g, want ≈1e6", max)
	}
}

func TestHistogramReset(t *testing.T) {
	h := new(Histogram)
	h.Observe(time.Millisecond)
	h.Reset()
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || s.Max() != 0 {
		t.Fatalf("after reset: %+v", s)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	// get-or-create races plus concurrent observes; run with -race.
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(time.Duration(i))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["c"] != 8000 || s.Gauges["g"] != 8000 || s.Histograms["h"].Count != 8000 {
		t.Fatalf("concurrent totals wrong: %+v", s)
	}
}

func TestQueryTrace(t *testing.T) {
	tr := &QueryTrace{}
	tr.Begin("sharded", "voronoi")
	tr.Add(PhaseSeed, 10*time.Microsecond)
	tr.Add(PhaseExpand, 40*time.Microsecond)
	tr.Add(PhaseExpand, 10*time.Microsecond)
	tr.SetFanOut(4)
	tr.Finish(100*time.Microsecond, 42, 17)
	if tr.Phase(PhaseExpand) != 50*time.Microsecond || tr.Total() != 100*time.Microsecond {
		t.Fatalf("phase/total wrong: %s", tr)
	}
	if tr.FanOut() != 4 {
		t.Fatalf("fanout wrong: %s", tr)
	}
	str := tr.String()
	for _, want := range []string{"flavor=sharded", "method=voronoi", "fanout=4", "seed=", "expand=", "candidates=42", "results=17"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q, missing %q", str, want)
		}
	}
	// Begin resets everything.
	tr.Begin("static", "traditional")
	if tr.Phase(PhaseExpand) != 0 || tr.Total() != 0 || tr.FanOut() != 0 {
		t.Fatal("Begin did not reset")
	}
}

func TestHandlerJSONAndProm(t *testing.T) {
	r := NewRegistry()
	r.Counter(`q_total{flavor="static"}`).Add(3)
	r.Gauge("pool_pages").Add(12)
	r.Histogram(`lat_ns{flavor="static"}`).Observe(time.Millisecond)
	h := Handler(r)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("default content type = %q", ct)
	}
	var flat map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &flat); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body)
	}
	if flat[`q_total{flavor="static"}`] != float64(3) {
		t.Fatalf("counter missing from JSON: %v", flat)
	}
	hist, ok := flat[`lat_ns{flavor="static"}`].(map[string]any)
	if !ok || hist["count"] != float64(1) || hist["p50"].(float64) <= 0 {
		t.Fatalf("histogram missing from JSON: %v", flat)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prom", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE q_total counter",
		`q_total{flavor="static"} 3`,
		"# TYPE pool_pages gauge",
		"pool_pages 12",
		"# TYPE lat_ns summary",
		`lat_ns{flavor="static",quantile="0.5"}`,
		`lat_ns_count{flavor="static"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prom output missing %q:\n%s", want, body)
		}
	}

	// Accept: text/plain also selects the Prometheus format.
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "# TYPE") {
		t.Error("Accept: text/plain did not select Prometheus format")
	}

	// A nil registry serves an empty JSON object.
	rec = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if strings.TrimSpace(rec.Body.String()) != "{}" {
		t.Errorf("nil registry body = %q", rec.Body)
	}
}
