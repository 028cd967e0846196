package vaq_test

// The remote conformance suite: a RemoteEngine fanned out over areaserve
// backends must answer every query byte-identically to a local engine
// over the union of the backends' points — plus the wire-specific
// contracts no local flavor has: deadline propagation into the server,
// cancellation over the wire, mid-stream disconnects, one attempt per
// backend call, a dead backend failing the query, and the dial refusing
// backends that overlap.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	vaq "repro"
	"repro/internal/serve"
	"repro/internal/wire"
)

// remoteFixture is a dataset split into contiguous chunks, each served by
// its own in-process areaserve handler, plus the local oracle over the
// whole dataset.
type remoteFixture struct {
	pts    []vaq.Point
	local  *vaq.Engine
	urls   []string
	chunks []*vaq.Engine // per-backend engines, for direct inspection
	// requests counts the requests the backends received, /v1/info
	// excepted: the calls queries made.
	requests atomic.Int64
}

// startFixture splits pts at the given cut indexes (uneven on purpose —
// even splits hide id-offset bugs) and serves each chunk, every engine built
// over the unit square.
func startFixture(t testing.TB, pts []vaq.Point, cuts ...int) *remoteFixture {
	t.Helper()
	return startFixtureOver(t, pts, vaq.UnitSquare(), cuts...)
}

// startFixtureOver is startFixture with every engine built over universe.
func startFixtureOver(t testing.TB, pts []vaq.Point, universe vaq.Rect, cuts ...int) *remoteFixture {
	t.Helper()
	local, err := vaq.NewEngine(pts, universe)
	if err != nil {
		t.Fatal(err)
	}
	f := &remoteFixture{pts: pts, local: local}
	starts := append([]int{0}, cuts...)
	for i, start := range starts {
		end := len(pts)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		eng, err := vaq.NewEngine(pts[start:end], universe)
		if err != nil {
			t.Fatal(err)
		}
		h := serve.NewHandler(eng, serve.Config{IDOffset: int64(start), Flavor: "static"})
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/info" {
				f.requests.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		f.urls = append(f.urls, srv.URL)
		f.chunks = append(f.chunks, eng)
	}
	return f
}

func (f *remoteFixture) dial(t *testing.T, opts ...vaq.Option) *vaq.RemoteEngine {
	t.Helper()
	re, err := vaq.DialRemote(context.Background(), f.urls, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != len(f.pts) {
		t.Fatalf("remote engine advertises %d points, dataset has %d", re.Len(), len(f.pts))
	}
	return re
}

// remoteConformanceRegions mirrors the local suite's query shapes.
func remoteConformanceRegions(rng *rand.Rand) map[string]vaq.Region {
	return map[string]vaq.Region{
		"concave": vaq.PolygonRegion(vaq.RandomQueryPolygon(rng, 10, 0.05, vaq.UnitSquare())),
		"sliver": vaq.PolygonRegion(vaq.MustPolygon([]vaq.Point{
			vaq.Pt(0.10, 0.10), vaq.Pt(0.90, 0.12), vaq.Pt(0.90, 0.13),
			vaq.Pt(0.12, 0.125), vaq.Pt(0.11, 0.30), vaq.Pt(0.10, 0.30),
		})),
		"circle": vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.6, 0.4), 0.12)),
		"empty":  vaq.PolygonRegion(vaq.MustPolygon([]vaq.Point{vaq.Pt(0.0001, 0.0001), vaq.Pt(0.0002, 0.0001), vaq.Pt(0.0002, 0.0002)})),
	}
}

// TestRemoteConformance pins RemoteEngine byte-identical to the local
// oracle across methods × regions × options.
func TestRemoteConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pts := vaq.UniformPoints(rng, 2500, vaq.UnitSquare())
	f := startFixture(t, pts, 1000, 1600) // three uneven chunks
	re := f.dial(t)
	ctx := context.Background()

	for rname, region := range remoteConformanceRegions(rng) {
		oracle, err := f.local.Query(ctx, region)
		if err != nil {
			t.Fatalf("%s: local oracle: %v", rname, err)
		}
		for _, m := range []vaq.Method{vaq.Traditional, vaq.VoronoiBFS, vaq.VoronoiBFSStrict, vaq.BruteForce} {
			t.Run(rname+"/"+m.String(), func(t *testing.T) {
				var st vaq.Stats
				got, err := re.Query(ctx, region, vaq.UsingMethod(m), vaq.WithStatsInto(&st))
				if err != nil {
					t.Fatal(err)
				}
				localIDs, err := f.local.Query(ctx, region, vaq.UsingMethod(m))
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, localIDs) {
					t.Fatalf("Query: %d ids, local %d — not byte-identical", len(got), len(localIDs))
				}
				if st.ResultSize != len(got) {
					t.Errorf("stats.ResultSize = %d, want %d", st.ResultSize, len(got))
				}

				// CountOnly: nil ids, exact count.
				var cst vaq.Stats
				ids, err := re.Query(ctx, region, vaq.UsingMethod(m), vaq.CountOnly(), vaq.WithStatsInto(&cst))
				if err != nil {
					t.Fatal(err)
				}
				if ids != nil {
					t.Errorf("CountOnly returned %d ids, want nil", len(ids))
				}
				if cst.ResultSize != len(oracle) {
					t.Errorf("CountOnly count = %d, want %d", cst.ResultSize, len(oracle))
				}

				// Each: streamed set covers the oracle, every position
				// bit-exact from the wire.
				var streamed []int64
				err = re.Each(ctx, region, func(id int64, p vaq.Point) bool {
					streamed = append(streamed, id)
					if p != pts[id] {
						t.Fatalf("Each: id %d position %v, want %v (must be bit-exact)", id, p, pts[id])
					}
					return true
				}, vaq.UsingMethod(m))
				if err != nil {
					t.Fatal(err)
				}
				slices.Sort(streamed)
				if !slices.Equal(streamed, oracle) {
					t.Fatalf("Each streamed %d ids, oracle %d", len(streamed), len(oracle))
				}
			})
		}
	}
}

// TestRemoteQueryAll pins the batch entry point against per-region local
// queries, including the count-only form.
func TestRemoteQueryAll(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pts := vaq.UniformPoints(rng, 2000, vaq.UnitSquare())
	f := startFixture(t, pts, 900)
	re := f.dial(t)
	ctx := context.Background()

	regions := make([]vaq.Region, 8)
	for i := range regions {
		if i%3 == 2 {
			regions[i] = vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64()), 0.08))
		} else {
			regions[i] = vaq.PolygonRegion(vaq.RandomQueryPolygon(rng, 8, 0.02, vaq.UnitSquare()))
		}
	}

	var agg vaq.Stats
	out, err := re.QueryAll(ctx, regions, vaq.WithStatsInto(&agg))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(regions) {
		t.Fatalf("%d results for %d regions", len(out), len(regions))
	}
	total := 0
	for i, region := range regions {
		want, err := f.local.Query(ctx, region)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(out[i], want) {
			t.Fatalf("batch result %d diverges from the local oracle", i)
		}
		total += len(want)
	}
	if agg.ResultSize != total {
		t.Errorf("aggregate ResultSize = %d, want %d", agg.ResultSize, total)
	}

	var cagg vaq.Stats
	cout, err := re.QueryAll(ctx, regions, vaq.CountOnly(), vaq.WithStatsInto(&cagg))
	if err != nil {
		t.Fatal(err)
	}
	for i := range cout {
		if cout[i] != nil {
			t.Fatalf("CountOnly batch slice %d not nil", i)
		}
	}
	if cagg.ResultSize != total {
		t.Errorf("CountOnly aggregate = %d, want %d", cagg.ResultSize, total)
	}
}

// slowServeEngine wraps an engine, blocking Query until its context dies
// and recording whether that context carried a deadline.
type slowServeEngine struct {
	*vaq.Engine
	sawDeadline atomic.Bool
	entered     chan struct{} // closed once, on first Query entry
	once        atomic.Bool
}

func (s *slowServeEngine) Query(ctx context.Context, region vaq.Region, opts ...vaq.QueryOpt) ([]int64, error) {
	if _, ok := ctx.Deadline(); ok {
		s.sawDeadline.Store(true)
	}
	if s.once.CompareAndSwap(false, true) {
		close(s.entered)
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

func slowBackend(t *testing.T, n int) (*slowServeEngine, string) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	eng, err := vaq.NewEngine(vaq.UniformPoints(rng, n, vaq.UnitSquare()), vaq.UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	slow := &slowServeEngine{Engine: eng, entered: make(chan struct{})}
	srv := httptest.NewServer(serve.NewHandler(slow, serve.Config{}))
	t.Cleanup(srv.Close)
	return slow, srv.URL
}

// TestRemoteDeadlinePropagation verifies the deadline crosses the wire:
// the server-side query context carries a deadline (from the
// Vaq-Timeout-Ms header), and the caller gets context.DeadlineExceeded
// well before any transport-level timeout could fire.
func TestRemoteDeadlinePropagation(t *testing.T) {
	slow, url := slowBackend(t, 100)
	re, err := vaq.DialRemote(context.Background(), []string{url})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = re.Query(ctx, remoteConformanceRegions(rand.New(rand.NewSource(1)))["circle"])
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("deadline took %v to surface", d)
	}
	if !slow.sawDeadline.Load() {
		t.Error("server-side query context carried no deadline — header not propagated")
	}
}

// TestDialRemoteProbeIsOneShot verifies DialRemote leaves nothing running
// behind the call: the /v1/info probe asks the server to close the
// connection, so no idle keep-alive connection — whose server goroutine
// pins the handler's engine until it exits — outlives the dial, while
// queries keep their connections alive as before.
func TestDialRemoteProbeIsOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	eng, err := vaq.NewEngine(vaq.UniformPoints(rng, 200, vaq.UnitSquare()), vaq.UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	var probes, probeCloses, queryCloses atomic.Int64
	h := serve.NewHandler(eng, serve.Config{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v1/info":
			probes.Add(1)
			if r.Close {
				probeCloses.Add(1)
			}
		case r.Close:
			queryCloses.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	re, err := vaq.DialRemote(context.Background(), []string{srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if probes.Load() != 1 || probeCloses.Load() != 1 {
		t.Fatalf("%d of %d /v1/info probes asked for Connection: close, want 1 of 1", probeCloses.Load(), probes.Load())
	}
	if _, err := re.Query(context.Background(), vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.5, 0.5), 0.2))); err != nil {
		t.Fatal(err)
	}
	if queryCloses.Load() != 0 {
		t.Fatal("a query request asked for Connection: close; only the dial probe is one-shot")
	}
}

// TestRemoteCancellationOverTheWire verifies a client-side cancel reaches
// the in-flight server query (the request context dies on disconnect) and
// surfaces as context.Canceled at the caller.
func TestRemoteCancellationOverTheWire(t *testing.T) {
	slow, url := slowBackend(t, 100)
	re, err := vaq.DialRemote(context.Background(), []string{url})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := re.Query(ctx, remoteConformanceRegions(rand.New(rand.NewSource(1)))["circle"])
		done <- err
	}()
	<-slow.entered // the query is live server-side
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation never surfaced")
	}
}

// TestRemoteEachEarlyStop verifies yield-stop mid-stream: the client
// stops consuming, Each returns nil, and nothing hangs.
func TestRemoteEachEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	pts := vaq.UniformPoints(rng, 1500, vaq.UnitSquare())
	f := startFixture(t, pts, 700)
	re := f.dial(t)

	whole := vaq.PolygonRegion(vaq.MustPolygon([]vaq.Point{ // the universe itself: a larger region is refused
		vaq.Pt(0, 0), vaq.Pt(1, 0), vaq.Pt(1, 1), vaq.Pt(0, 1),
	}))
	seen := 0
	err := re.Each(context.Background(), whole, func(id int64, p vaq.Point) bool {
		seen++
		return seen < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Fatalf("yield ran %d times after stopping at 5", seen)
	}
}

// TestRemoteEachTruncatedStream verifies the truncation contract: a
// backend that dies mid-stream (frames but no EOF frame) must surface an
// error, never pass as a complete result.
func TestRemoteEachTruncatedStream(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/info", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(wire.Info{Len: 10, Bounds: [4]float64{0, 0, 1, 1}})
	})
	mux.HandleFunc("POST /v1/each", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		for i := 0; i < 3; i++ {
			fmt.Fprintf(w, `{"id":%d,"x":0.5,"y":0.5}`+"\n", i)
		}
		// ...and the backend dies: no EOF frame.
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	re, err := vaq.DialRemote(context.Background(), []string{srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	region := vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.5, 0.5), 0.2))
	err = re.Each(context.Background(), region, func(id int64, p vaq.Point) bool { return true })
	if err == nil {
		t.Fatal("truncated stream passed as complete")
	}
}

// flakyProxy fails the first n area-query POSTs with a 500, then proxies
// to the real handler; it counts every POST it sees.
type flakyProxy struct {
	inner     http.Handler
	posts     atomic.Int64
	remaining atomic.Int64
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/") && r.Method == http.MethodPost {
		p.posts.Add(1)
		if p.remaining.Add(-1) >= 0 {
			http.Error(w, `{"code":"internal","message":"transient"}`, http.StatusInternalServerError)
			return
		}
	}
	p.inner.ServeHTTP(w, r)
}

// TestRemoteRetry pins that a backend call is one attempt: a backend that
// answers its first request with a 500 fails the query after exactly that
// one request, the failure counts once in Dropped, and the next query —
// a caller retrying the whole idempotent query — is answered.
func TestRemoteRetry(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	pts := vaq.UniformPoints(rng, 600, vaq.UnitSquare())
	eng, err := vaq.NewEngine(pts, vaq.UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	proxy := &flakyProxy{inner: serve.NewHandler(eng, serve.Config{})}
	srv := httptest.NewServer(proxy)
	defer srv.Close()
	region := vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.5, 0.5), 0.2))
	want, err := eng.Query(context.Background(), region)
	if err != nil {
		t.Fatal(err)
	}

	proxy.remaining.Store(1)
	re, err := vaq.DialRemote(context.Background(), []string{srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.Query(context.Background(), region); err == nil {
		t.Fatal("a query survived a 500")
	}
	if n := proxy.posts.Load(); n != 1 {
		t.Errorf("the backend saw %d requests for one failed query, want 1", n)
	}
	if n := re.Dropped(); n != 1 {
		t.Errorf("Dropped() = %d, want 1", n)
	}
	got, err := re.Query(context.Background(), region)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("the query run again: %d ids (err %v), want %d", len(got), err, len(want))
	}
}

// TestRemoteDeadBackendFails: with one backend dead, Query, QueryAll and
// Each fail — never the survivors' ids with a nil error — and each failed
// backend call counts in Dropped, which healthy traffic leaves at 0.
func TestRemoteDeadBackendFails(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	pts := vaq.UniformPoints(rng, 1200, vaq.UnitSquare())
	f := startFixture(t, pts, 600)
	ctx := context.Background()
	region := vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.5, 0.5), 0.15))

	healthy := f.dial(t)
	if _, err := healthy.Query(ctx, region); err != nil {
		t.Fatal(err)
	}
	if err := healthy.Each(ctx, region, func(int64, vaq.Point) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if n := healthy.Dropped(); n != 0 {
		t.Errorf("healthy traffic: Dropped() = %d, want 0", n)
	}

	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/info" {
			json.NewEncoder(w).Encode(wire.Info{Len: 10, Bounds: [4]float64{0, 0, 1, 1}, IDOffset: int64(len(pts))})
			return
		}
		http.Error(w, `{"code":"internal","message":"down"}`, http.StatusInternalServerError)
	}))
	defer dead.Close()
	re, err := vaq.DialRemote(ctx, append(append([]string{}, f.urls...), dead.URL))
	if err != nil {
		t.Fatal(err)
	}
	if ids, err := re.Query(ctx, region); err == nil {
		t.Errorf("Query answered %d ids with a dead backend", len(ids))
	}
	if out, err := re.QueryAll(ctx, []vaq.Region{region, region}); err == nil {
		t.Errorf("QueryAll answered %d results with a dead backend", len(out))
	}
	if err := re.Each(ctx, region, func(int64, vaq.Point) bool { return true }); err == nil {
		t.Error("Each ended cleanly with a dead backend")
	}
	// One failed backend call per query: the batch is one /v1/queryall.
	if n := re.Dropped(); n != 3 {
		t.Errorf("Dropped() = %d after three failed queries, want 3", n)
	}
}

// TestRemoteMetrics verifies the remote flavor composes with the shared
// instrumentation exactly like local flavors: the registry carries
// remote-flavor counters, one observation per query.
func TestRemoteMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	pts := vaq.UniformPoints(rng, 800, vaq.UnitSquare())
	f := startFixture(t, pts, 400)

	reg := vaq.NewMetricsRegistry()
	re := f.dial(t, vaq.WithMetrics(reg))
	region := vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.4, 0.6), 0.1))

	first, err := re.Query(context.Background(), region)
	if err != nil {
		t.Fatal(err)
	}
	second, err := re.Query(context.Background(), region)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(first, second) {
		t.Fatal("a repeated query changed the result")
	}
	const name = `vaq_queries_total{flavor="remote",method="voronoi"}`
	if got := reg.Snapshot().Counters[name]; got != 2 {
		t.Errorf("%s = %d after two queries, want 2", name, got)
	}
}

// TestRemoteBoundsAndUniverse pins the two rectangles a dialled
// backend advertises. data_bounds is the pruning key and nothing else;
// bounds, the universe, is what the engine admits regions by: a region
// inside the universe and beyond every point answers empty, with no backend
// contacted.
func TestRemoteBoundsAndUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	pts := vaq.UniformPoints(rng, 1200, vaq.NewRect(0.1, 0.1, 0.8, 0.9))
	f := startFixture(t, pts, 500)
	ctx := context.Background()

	inside := vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.5, 0.5), 0.15))
	beyondData := vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.93, 0.5), 0.05)) // in the unit square, right of every point
	want, err := f.local.Query(ctx, inside)
	if err != nil || len(want) == 0 {
		t.Fatalf("oracle: %d ids, err %v", len(want), err)
	}

	var posts atomic.Int64
	urls := make([]string, len(f.urls))
	for i, u := range f.urls {
		target, _ := url.Parse(u)
		proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				posts.Add(1)
			}
			httputil.NewSingleHostReverseProxy(target).ServeHTTP(w, r)
		}))
		t.Cleanup(proxy.Close)
		urls[i] = proxy.URL
	}
	re, err := vaq.DialRemote(ctx, urls)
	if err != nil {
		t.Fatal(err)
	}
	if re.Bounds() != vaq.UnitSquare() {
		t.Errorf("Bounds() = %v, want the unit square", re.Bounds())
	}
	got, err := re.Query(ctx, inside)
	if err != nil || !slices.Equal(got, want) {
		t.Errorf("%d ids (err %v), oracle %d", len(got), err, len(want))
	}
	before := posts.Load()
	got, err = re.Query(ctx, beyondData)
	if contacted := posts.Load() - before; err != nil || len(got) != 0 || contacted != 0 {
		t.Errorf("region inside the universe, beyond the data: %d ids, err %v, %d backends contacted; want an empty answer from none", len(got), err, contacted)
	}
}

// TestDialRemoteRefusesOverlappingBackends: two backends claiming the same
// global ids — one URL dialled twice, or two servers with overlapping
// id_offset ranges — fail the dial with an error naming both URLs. Before
// the check, one URL dialled twice answered every id twice with a nil
// error, and Len and Count read double.
func TestDialRemoteRefusesOverlappingBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	pts := vaq.UniformPoints(rng, 400, vaq.UnitSquare())
	f := startFixture(t, pts, 250)
	shifted := httptest.NewServer(serve.NewHandler(f.chunks[1], serve.Config{IDOffset: 200}))
	t.Cleanup(shifted.Close)
	ctx := context.Background()
	for _, urls := range [][]string{
		{f.urls[0], f.urls[0]},
		{f.urls[0], f.urls[1], f.urls[1]},
		{f.urls[0], shifted.URL}, // [0, 250) and [200, 350)
	} {
		re, err := vaq.DialRemote(ctx, urls)
		if err == nil {
			t.Errorf("dial of %v: an engine of %d points over overlapping backends", urls, re.Len())
			continue
		}
		if a, b := urls[len(urls)-2], urls[len(urls)-1]; !strings.Contains(err.Error(), a) || !strings.Contains(err.Error(), b) || !strings.Contains(err.Error(), "overlap") {
			t.Errorf("dial of %v: err = %v, want one naming %s and %s", urls, err, a, b)
		}
	}
}

// TestRemoteDynamicBackendIsNeverPrunedByItsData: a dynamic backend's data
// MBR grows after a client has dialled, so it advertises no data_bounds and
// is pruned by its universe only — a point inserted outside the MBR the
// engine had at dial time is found through the already dialled engine.
func TestRemoteDynamicBackendIsNeverPrunedByItsData(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	static, err := vaq.NewEngine(vaq.UniformPoints(rng, 300, vaq.NewRect(0.5, 0, 1, 0.5)), vaq.UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	dynamic := vaq.NewDynamicEngine(vaq.UnitSquare())
	for _, p := range vaq.UniformPoints(rng, 300, vaq.NewRect(0, 0, 0.4, 0.4)) {
		if _, _, err := dynamic.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	var urls []string
	for _, b := range []struct {
		eng    serve.Engine
		offset int64
		flavor string
	}{{static, 0, "static"}, {dynamic, 300, "dynamic"}} {
		srv := httptest.NewServer(serve.NewHandler(b.eng, serve.Config{IDOffset: b.offset, Flavor: b.flavor}))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	for i, wantKey := range []bool{true, false} {
		resp, err := http.Get(urls[i] + "/v1/info")
		if err != nil {
			t.Fatal(err)
		}
		var info wire.Info
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil || (info.DataBounds != nil) != wantKey {
			t.Fatalf("backend %d (%s): data_bounds %v, err %v", i, info.Flavor, info.DataBounds, err)
		}
	}

	ctx := context.Background()
	re, err := vaq.DialRemote(ctx, urls)
	if err != nil {
		t.Fatal(err)
	}
	far := vaq.Pt(0.9, 0.9) // outside both backends' data at dial time
	around := vaq.CircleRegion(vaq.NewCircle(far, 0.05))
	if ids, err := re.Query(ctx, around); err != nil || len(ids) != 0 {
		t.Fatalf("before the insert: %v, err %v", ids, err)
	}
	local, _, err := dynamic.Insert(far)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := re.Query(ctx, around)
	if err != nil || !slices.Equal(ids, []int64{300 + local}) {
		t.Fatalf("after inserting %v as local id %d: remote answers %v, err %v", far, local, ids, err)
	}
}
