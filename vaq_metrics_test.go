package vaq

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// metricName builds the labeled per-query metric name the registry uses.
func metricName(base, flavor string, m Method) string {
	return fmt.Sprintf("%s{flavor=%q,method=%q}", base, flavor, m.String())
}

// TestMetricsReconcileAcrossFlavors pins the tentpole invariant: for every
// flavor, the registry's counters equal the sums of the per-query Stats
// the same queries reported through WithStatsInto — the two observability
// surfaces never disagree.
func TestMetricsReconcileAcrossFlavors(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	pts := UniformPoints(rng, 3000, UnitSquare())
	store := StoreConfig{PageSize: 4096, PoolPages: 16}

	reg := NewMetricsRegistry()
	eng, err := NewEngine(pts, UnitSquare(), WithStore(store), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedEngine(pts, UnitSquare(), WithShards(5), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	dyn := NewDynamicEngine(UnitSquare(), WithMetrics(reg))
	for i, p := range pts[:1200] {
		if _, _, err := dyn.Insert(p); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	flavors := []struct {
		flavor string
		q      Querier
	}{
		{flavorStatic, eng},
		{flavorSharded, sharded},
		{flavorDynamic, dyn},
	}

	ctx := context.Background()
	regions := make([]Region, 6)
	for i := range regions {
		regions[i] = PolygonRegion(RandomQueryPolygon(rng, 10, 0.03, UnitSquare()))
	}

	type expect struct {
		queries, candidates, results, loaded uint64
		singles, batches                     uint64
	}
	want := map[string]map[Method]*expect{}
	for _, f := range flavors {
		want[f.flavor] = map[Method]*expect{}
		for _, m := range []Method{Traditional, VoronoiBFS} {
			e := &expect{}
			want[f.flavor][m] = e
			// Single queries and one streamed query.
			for _, region := range regions[:4] {
				var st Stats
				if _, err := f.q.Query(ctx, region, UsingMethod(m), WithStatsInto(&st)); err != nil {
					t.Fatalf("%s/%s query: %v", f.flavor, m, err)
				}
				e.queries++
				e.singles++
				e.candidates += uint64(st.Candidates)
				e.results += uint64(st.ResultSize)
				e.loaded += uint64(st.RecordsLoaded)
			}
			var st Stats
			err := f.q.Each(ctx, regions[4], func(int64, Point) bool { return true },
				UsingMethod(m), WithStatsInto(&st))
			if err != nil {
				t.Fatalf("%s/%s each: %v", f.flavor, m, err)
			}
			e.queries++
			e.singles++
			e.candidates += uint64(st.Candidates)
			e.results += uint64(st.ResultSize)
			e.loaded += uint64(st.RecordsLoaded)
			// One batch: its members count as queries, its aggregate stats as
			// work, but per-query latency is not observed for members.
			if _, err := f.q.QueryAll(ctx, regions, UsingMethod(m), WithStatsInto(&st)); err != nil {
				t.Fatalf("%s/%s queryall: %v", f.flavor, m, err)
			}
			e.queries += uint64(len(regions))
			e.batches++
			e.candidates += uint64(st.Candidates)
			e.results += uint64(st.ResultSize)
			e.loaded += uint64(st.RecordsLoaded)
		}
	}

	snap := reg.Snapshot()
	for _, f := range flavors {
		var batches uint64
		for m, e := range want[f.flavor] {
			check := func(base string, got, want uint64) {
				if got != want {
					t.Errorf("%s %s/%s: registry %d, per-query sum %d", base, f.flavor, m, got, want)
				}
			}
			check("queries", snap.Counters[metricName("vaq_queries_total", f.flavor, m)], e.queries)
			check("candidates", snap.Counters[metricName("vaq_query_candidates_total", f.flavor, m)], e.candidates)
			check("results", snap.Counters[metricName("vaq_query_results_total", f.flavor, m)], e.results)
			check("records_loaded", snap.Counters[metricName("vaq_query_records_loaded_total", f.flavor, m)], e.loaded)
			check("errors", snap.Counters[metricName("vaq_query_errors_total", f.flavor, m)], 0)
			check("cancellations", snap.Counters[metricName("vaq_query_cancellations_total", f.flavor, m)], 0)
			h, ok := snap.Histograms[metricName("vaq_query_latency_ns", f.flavor, m)]
			if !ok || h.Count != e.singles {
				t.Errorf("latency %s/%s: histogram count %d, want %d single queries", f.flavor, m, h.Count, e.singles)
			}
			if ok && e.singles > 0 && (h.P50 <= 0 || h.P99 < h.P50) {
				t.Errorf("latency %s/%s: implausible percentiles p50=%v p99=%v", f.flavor, m, h.P50, h.P99)
			}
			batches += e.batches
		}
		got := snap.Counters[fmt.Sprintf("vaq_batches_total{flavor=%q}", f.flavor)]
		if got != batches {
			t.Errorf("batches %s: registry %d, want %d", f.flavor, got, batches)
		}
	}

	// The store-backed static engine's pool collectors must agree with the
	// deprecated thin view.
	reads, hits, ok := eng.IOStats()
	if !ok {
		t.Fatal("static engine lost its store")
	}
	gr := snap.Gauges[fmt.Sprintf("vaq_bufpool_page_reads_total{flavor=%q}", flavorStatic)]
	gh := snap.Gauges[fmt.Sprintf("vaq_bufpool_cache_hits_total{flavor=%q}", flavorStatic)]
	if int(gr) != reads || int(gh) != hits {
		t.Errorf("pool collectors: gauges (%v, %v) disagree with IOStats (%d, %d)", gr, gh, reads, hits)
	}

	// Dynamic collectors: the epoch gauge equals accepted inserts, and the
	// queries above forced at least one snapshot publish.
	if got := snap.Gauges[fmt.Sprintf("vaq_dynamic_epoch{flavor=%q}", flavorDynamic)]; got != 1200 {
		t.Errorf("dynamic epoch gauge = %v, want 1200", got)
	}
	ph := snap.Histograms[fmt.Sprintf("vaq_dynamic_publish_latency_ns{flavor=%q}", flavorDynamic)]
	if ph.Count == 0 {
		t.Error("dynamic publish latency histogram never observed a rebuild")
	}
}

// TestMetricsParallelSoak hammers one shared registry from every flavor
// concurrently (run under -race) with snapshot readers interleaved, then
// reconciles the total query count exactly.
func TestMetricsParallelSoak(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	pts := UniformPoints(rng, 1500, UnitSquare())

	reg := NewMetricsRegistry()
	eng, err := NewEngine(pts, UnitSquare(), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedEngine(pts, UnitSquare(), WithShards(4), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	dyn := NewDynamicEngine(UnitSquare(), WithMetrics(reg))
	for _, p := range pts {
		if _, _, err := dyn.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	queriers := []Querier{eng, sharded, dyn, dyn.Snapshot()}
	perFlavor := map[string]uint64{} // dynamic and snapshot share a label

	const goroutines = 8
	const perG = 40
	regions := make([]Region, 8)
	for i := range regions {
		regions[i] = PolygonRegion(RandomQueryPolygon(rng, 8, 0.02, UnitSquare()))
	}
	// Deterministic assignment so expected counts are exact.
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			switch (g + i) % len(queriers) {
			case 0:
				perFlavor[flavorStatic]++
			case 1:
				perFlavor[flavorSharded]++
			default:
				perFlavor[flavorDynamic]++
			}
		}
	}

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent snapshot reader
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = reg.Snapshot()
			}
		}
	}()
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var tr QueryTrace
			for i := 0; i < perG; i++ {
				q := queriers[(g+i)%len(queriers)]
				opts := []QueryOpt{UsingMethod(VoronoiBFS)}
				if i%5 == 0 {
					// Traces are per-goroutine values; reused across queries.
					opts = append(opts, WithTraceInto(&tr))
				}
				if _, err := q.Query(ctx, regions[(g*perG+i)%len(regions)], opts...); err != nil {
					t.Errorf("goroutine %d query %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	snap := reg.Snapshot()
	for flavor, wantN := range perFlavor {
		got := snap.Counters[metricName("vaq_queries_total", flavor, VoronoiBFS)]
		if got != wantN {
			t.Errorf("%s: vaq_queries_total = %d, want %d", flavor, got, wantN)
		}
	}
}

// TestMetricsCancellationClassified pins the error taxonomy: a cancelled
// query lands in the cancellations counter, not errors.
func TestMetricsCancellationClassified(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	pts := UniformPoints(rng, 800, UnitSquare())
	reg := NewMetricsRegistry()
	eng, err := NewEngine(pts, UnitSquare(), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	region := PolygonRegion(RandomQueryPolygon(rng, 8, 0.05, UnitSquare()))
	if _, err := eng.Query(ctx, region); err == nil {
		t.Fatal("cancelled query succeeded")
	}
	snap := reg.Snapshot()
	if got := snap.Counters[metricName("vaq_query_cancellations_total", flavorStatic, VoronoiBFS)]; got != 1 {
		t.Errorf("cancellations = %d, want 1", got)
	}
	if got := snap.Counters[metricName("vaq_query_errors_total", flavorStatic, VoronoiBFS)]; got != 0 {
		t.Errorf("errors = %d, want 0", got)
	}
	// The attempt still counts as a query.
	if got := snap.Counters[metricName("vaq_queries_total", flavorStatic, VoronoiBFS)]; got != 1 {
		t.Errorf("queries = %d, want 1", got)
	}
}

// TestQueryTracePhases pins WithTraceInto: the phases a query names, the
// reset of a reused trace, and the sharded fan-out/merge markers.
func TestQueryTracePhases(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	pts := UniformPoints(rng, 2000, UnitSquare())
	eng, err := NewEngine(pts, UnitSquare(), WithStore(StoreConfig{PageSize: 4096, PoolPages: 8}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	region := PolygonRegion(RandomQueryPolygon(rng, 10, 0.05, UnitSquare()))

	var tr QueryTrace
	if _, err := eng.Query(ctx, region, WithTraceInto(&tr)); err != nil {
		t.Fatal(err)
	}
	if tr.Total() <= 0 {
		t.Error("traced query reported no total time")
	}
	got := tr.String()
	for _, want := range []string{"flavor=static", "method=voronoi", " fanout=1 ", " seed=", " expand=", " page_fetch="} {
		if !strings.Contains(got, want) {
			t.Errorf("trace string %q is missing %q", got, want)
		}
	}

	// The strict rule on a polygon times its ring starts as the seed, its
	// walk and flood as the expansion and its validations' loads as page
	// fetches.
	if _, err := eng.Query(ctx, region, WithTraceInto(&tr), UsingMethod(VoronoiBFSStrict)); err != nil {
		t.Fatal(err)
	}
	got = tr.String()
	for _, want := range []string{"method=voronoi-strict", " seed=", " expand=", " page_fetch="} {
		if !strings.Contains(got, want) {
			t.Errorf("strict trace string %q is missing %q", got, want)
		}
	}

	// Second run on the same trace, by a method with no seed phase: Begin
	// must have reset the previous query's state.
	if _, err := eng.Query(ctx, region, WithTraceInto(&tr), UsingMethod(Traditional)); err != nil {
		t.Fatal(err)
	}
	got = tr.String()
	if !strings.Contains(got, "method=traditional") || strings.Contains(got, " seed=") {
		t.Errorf("reused trace kept the previous query's state: %q", got)
	}

	// Every method's time is split one way: the phases are never negative
	// and sum to at most the total; only a Voronoi method seeds, and only a
	// store engine's record loads read pages. The store here caches no page
	// and holds every record on one 64 KiB page, so each load checksums the
	// whole page and the pool's time outweighs what the total adds around
	// the method: a phase that counted it twice would pass the total.
	mem, err := NewEngine(pts, UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := NewEngine(pts, UnitSquare(), WithStore(StoreConfig{PageSize: 1 << 16, PoolPages: 0}))
	if err != nil {
		t.Fatal(err)
	}
	circle := CircleRegion(NewCircle(Pt(0.5, 0.5), 0.15))
	for _, layer := range []struct {
		name   string
		eng    *Engine
		stored bool
	}{{"memory", mem, false}, {"store", uncached, true}} {
		for _, q := range []struct {
			m      Method
			region Region
		}{
			{Traditional, region}, {VoronoiBFS, region}, {VoronoiBFSStrict, region},
			{VoronoiBFSStrict, circle}, {VoronoiBFSStrict, customRegion{region}}, {BruteForce, region},
		} {
			var qt QueryTrace
			if _, err := layer.eng.Query(ctx, q.region, WithTraceInto(&qt), UsingMethod(q.m)); err != nil {
				t.Fatal(err)
			}
			seed, expand, fetch := qt.Phase(obs.PhaseSeed), qt.Phase(obs.PhaseExpand), qt.Phase(obs.PhasePageFetch)
			where := fmt.Sprintf("%s %s on %T: %s", layer.name, q.m, q.region, &qt)
			if seed < 0 || expand < 0 || fetch < 0 {
				t.Errorf("%s: a negative phase", where)
			}
			if seed+expand+fetch > qt.Total() {
				t.Errorf("%s: seed + expand + page_fetch = %s, above the total", where, seed+expand+fetch)
			}
			if (q.m == Traditional || q.m == BruteForce) && seed != 0 {
				t.Errorf("%s: a seed phase", where)
			}
			if (!layer.stored || q.m == BruteForce) && fetch != 0 {
				t.Errorf("%s: a page_fetch phase", where)
			}
		}
	}

	// Sharded: fan-out recorded, and the gather merge phase exists.
	sharded, err := NewShardedEngine(pts, UnitSquare(), WithShards(6))
	if err != nil {
		t.Fatal(err)
	}
	var str QueryTrace
	if _, err := sharded.Query(ctx, region, WithTraceInto(&str)); err != nil {
		t.Fatal(err)
	}
	if str.FanOut() < 1 || str.FanOut() > 6 {
		t.Errorf("sharded fan-out = %d, want 1..6", str.FanOut())
	}

	// A dynamic epoch is one partition, keyed by the universe: fan-out 1.
	dyn := NewDynamicEngine(UnitSquare())
	for _, p := range pts {
		if _, _, err := dyn.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	var dtr QueryTrace
	if _, err := dyn.Snapshot().Query(ctx, region, WithTraceInto(&dtr)); err != nil {
		t.Fatal(err)
	}
	if dtr.FanOut() != 1 {
		t.Errorf("snapshot fan-out = %d, want 1: %s", dtr.FanOut(), &dtr)
	}
}

// TestMetricsHandlerServesEngineCounters drives the acceptance criterion's
// curl check in-process: after real queries, the handler serves non-zero
// query counters and latency percentiles in both formats.
func TestMetricsHandlerServesEngineCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(157))
	pts := UniformPoints(rng, 1000, UnitSquare())
	reg := NewMetricsRegistry()
	eng, err := NewEngine(pts, UnitSquare(),
		WithStore(StoreConfig{PageSize: 4096, PoolPages: 8}), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	region := PolygonRegion(RandomQueryPolygon(rng, 8, 0.04, UnitSquare()))
	for i := 0; i < 4; i++ {
		if _, err := eng.Query(ctx, region); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(MetricsHandler(reg))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var flat map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&flat); err != nil {
		t.Fatalf("JSON snapshot: %v", err)
	}
	qname := metricName("vaq_queries_total", flavorStatic, VoronoiBFS)
	var queries uint64
	if err := json.Unmarshal(flat[qname], &queries); err != nil || queries != 4 {
		t.Errorf("handler %s = %s (err %v), want 4", qname, flat[qname], err)
	}
	var hist struct {
		Count uint64  `json:"count"`
		P50   float64 `json:"p50"`
		P99   float64 `json:"p99"`
	}
	lname := metricName("vaq_query_latency_ns", flavorStatic, VoronoiBFS)
	if err := json.Unmarshal(flat[lname], &hist); err != nil {
		t.Fatalf("latency histogram JSON: %v", err)
	}
	if hist.Count != 4 || hist.P50 <= 0 || hist.P99 < hist.P50 {
		t.Errorf("latency summary count=%d p50=%v p99=%v", hist.Count, hist.P50, hist.P99)
	}
	// Buffer-pool collectors are live through the handler too.
	var reads float64
	json.Unmarshal(flat[fmt.Sprintf("vaq_bufpool_page_reads_total{flavor=%q}", flavorStatic)], &reads)
	if reads <= 0 {
		t.Error("handler reports zero buffer-pool page reads after store-backed queries")
	}

	resp2, err := srv.Client().Get(srv.URL + "?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE vaq_queries_total counter",
		`vaq_queries_total{flavor="static",method="voronoi"} 4`,
		`quantile="0.99"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus text missing %q", want)
		}
	}
}
