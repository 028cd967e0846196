package vaq_test

// What the shared scatter-gather kernel promises across transports: the
// same partitions answer identically in process and over HTTP, remote
// batches are pruned per backend, and cancellation is never mistaken for a
// backend failure.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	vaq "repro"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/wire"
)

// chunk is one contiguous run of an x-sorted dataset — a vertical strip of
// the plane — and the engine over it, built on the unit square; bounds is
// the tight MBR of its points, the pruning key.
type chunk struct {
	eng    *vaq.Engine
	off    int64
	bounds vaq.Rect
}

// xSortedChunks sorts pts by x and cuts them at the given indexes, so
// every chunk is a strip and MBR pruning has something to prune.
func xSortedChunks(t *testing.T, pts []vaq.Point, cuts ...int) []chunk {
	t.Helper()
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	var out []chunk
	starts := append([]int{0}, cuts...)
	for i, start := range starts {
		end := len(pts)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		eng, err := vaq.NewEngine(pts[start:end], vaq.UnitSquare())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, chunk{eng: eng, off: int64(start), bounds: eng.DataBounds()})
	}
	return out
}

// backendCounts is what one served chunk saw.
type backendCounts struct {
	requests atomic.Int64 // /v1/query + /v1/queryall
	regions  atomic.Int64 // regions across those requests
}

// serveChunks puts every chunk behind its own httptest server, dials the
// servers, and returns the engine plus the per-backend request counters.
func serveChunks(t *testing.T, chunks []chunk) (*vaq.RemoteEngine, []*backendCounts) {
	t.Helper()
	var (
		urls   []string
		counts []*backendCounts
	)
	for _, c := range chunks {
		h := serve.NewHandler(c.eng, serve.Config{IDOffset: c.off, Flavor: "static"})
		n := &backendCounts{}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/query":
				n.requests.Add(1)
				n.regions.Add(1)
			case "/v1/queryall":
				body, _ := io.ReadAll(r.Body)
				var req wire.BatchRequest
				if err := json.Unmarshal(body, &req); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				n.requests.Add(1)
				n.regions.Add(int64(len(req.Regions)))
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
		counts = append(counts, n)
	}
	re, err := vaq.DialRemote(context.Background(), urls)
	if err != nil {
		t.Fatal(err)
	}
	return re, counts
}

// chunkPartition is a chunk as an in-process shard.Partition, answering
// through the same public Engine API the serve handler calls.
type chunkPartition struct{ chunk }

func (p chunkPartition) Bounds() vaq.Rect { return p.bounds }
func (p chunkPartition) Len() int         { return p.eng.Len() }

func (p chunkPartition) opts(spec core.QuerySpec, st *vaq.Stats) []vaq.QueryOpt {
	opts := []vaq.QueryOpt{vaq.UsingMethod(spec.Method), vaq.WithStatsInto(st)}
	if spec.CountOnly {
		opts = append(opts, vaq.CountOnly())
	}
	return opts
}

func (p chunkPartition) Query(ctx context.Context, region vaq.Region, spec core.QuerySpec) ([]int64, vaq.Stats, error) {
	var st vaq.Stats
	ids, err := p.eng.Query(ctx, region, p.opts(spec, &st)...)
	for i := range ids {
		ids[i] += p.off
	}
	return ids, st, err
}

func (p chunkPartition) Each(ctx context.Context, region vaq.Region, spec core.QuerySpec, yield func(int64, vaq.Point) bool) (vaq.Stats, error) {
	var st vaq.Stats
	err := p.eng.Each(ctx, region, func(id int64, pt vaq.Point) bool { return yield(id+p.off, pt) }, p.opts(spec, &st)...)
	return st, err
}

// workOf is the part of Stats that counts work: what must not depend on
// the transport.
func workOf(st vaq.Stats) [5]int {
	return [5]int{st.ResultSize, st.Candidates, st.CellTests, st.IndexNodesVisited, st.RecordsLoaded}
}

// TestTransportsAnswerIdentically serves the same three chunks once as
// in-process partitions and once as dialled HTTP backends of the one
// kernel, whose pruning keys are the data_bounds /v1/info advertises: ids,
// fan-out and the aggregate work counters of Query, QueryAll and Each must
// not differ, and all must match the local oracle over the whole dataset. The dataset has an empty band
// (0.60 < x < 0.66) and the last cut falls in it, so one region lies inside
// the universe and between every chunk's data.
func TestTransportsAnswerIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pts := vaq.UniformPoints(rng, 3000, vaq.UnitSquare())
	pts = slices.DeleteFunc(pts, func(p vaq.Point) bool { return p.X > 0.60 && p.X < 0.66 })
	leftOfBand := 0
	for _, p := range pts {
		if p.X <= 0.60 {
			leftOfBand++
		}
	}
	chunks := xSortedChunks(t, pts, 700, leftOfBand)
	oracle, err := vaq.NewEngine(pts, vaq.UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	overHTTP, _ := serveChunks(t, chunks)
	ctx := context.Background()
	if overHTTP.Bounds() != vaq.UnitSquare() {
		t.Fatalf("universe %v, want the unit square, not the union of the data MBRs", overHTTP.Bounds())
	}
	parts := make([]shard.Partition, len(chunks))
	for i, c := range chunks {
		parts[i] = chunkPartition{c}
	}
	inProcess := vaq.OverPartitions(shard.Over(parts, vaq.UnitSquare(), 2, nil))

	regions := []vaq.Region{
		vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.1, 0.5), 0.05)),  // one strip: misses two data MBRs
		vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.25, 0.4), 0.12)), // straddles a cut
		vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.9, 0.9), 0.08)),
		vaq.PolygonRegion(vaq.MustPolygon([]vaq.Point{vaq.Pt(0.05, 0.45), vaq.Pt(0.95, 0.47), vaq.Pt(0.95, 0.5), vaq.Pt(0.05, 0.48)})), // every strip
		// In the empty band: inside the universe, misses every data MBR.
		vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.63, 0.5), 0.02)),
	}
	wantFanOut := map[int]int{0: 1, 3: 3, 4: 0}
	for i := 0; i < 6; i++ {
		regions = append(regions, vaq.PolygonRegion(vaq.RandomQueryPolygon(rng, 9, 0.03, vaq.UnitSquare())))
	}

	for _, m := range []vaq.Method{vaq.VoronoiBFS, vaq.VoronoiBFSStrict, vaq.Traditional} {
		for ri, region := range regions {
			want, err := oracle.Query(ctx, region)
			if err != nil {
				t.Fatal(err)
			}
			var a, b vaq.Stats
			var ta, tb vaq.QueryTrace
			got, err := inProcess.Query(ctx, region, vaq.UsingMethod(m), vaq.WithStatsInto(&a), vaq.WithTraceInto(&ta))
			if err != nil {
				t.Fatal(err)
			}
			remote, err := overHTTP.Query(ctx, region, vaq.UsingMethod(m), vaq.WithStatsInto(&b), vaq.WithTraceInto(&tb))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) || !slices.Equal(remote, want) {
				t.Fatalf("%v region %d: in-process %d ids, HTTP %d ids, oracle %d", m, ri, len(got), len(remote), len(want))
			}
			if workOf(a) != workOf(b) {
				t.Errorf("%v region %d: work in process %v, over HTTP %v", m, ri, workOf(a), workOf(b))
			}
			if ta.FanOut() != tb.FanOut() {
				t.Errorf("%v region %d: fan-out in process %d, over HTTP %d", m, ri, ta.FanOut(), tb.FanOut())
			}
			if n, pinned := wantFanOut[ri]; pinned && ta.FanOut() != n {
				t.Errorf("%v region %d: fan-out %d, want %d", m, ri, ta.FanOut(), n)
			}

			var seenA, seenB []int64
			if err := inProcess.Each(ctx, region, func(id int64, _ vaq.Point) bool { seenA = append(seenA, id); return true }, vaq.UsingMethod(m)); err != nil {
				t.Fatal(err)
			}
			if err := overHTTP.Each(ctx, region, func(id int64, _ vaq.Point) bool { seenB = append(seenB, id); return true }, vaq.UsingMethod(m)); err != nil {
				t.Fatal(err)
			}
			slices.Sort(seenA)
			slices.Sort(seenB)
			if !slices.Equal(seenA, want) || !slices.Equal(seenB, want) {
				t.Errorf("%v region %d: Each sets diverge (%d / %d / oracle %d)", m, ri, len(seenA), len(seenB), len(want))
			}
		}

		var a, b vaq.Stats
		outA, err := inProcess.QueryAll(ctx, regions, vaq.UsingMethod(m), vaq.WithStatsInto(&a))
		if err != nil {
			t.Fatal(err)
		}
		outB, err := overHTTP.QueryAll(ctx, regions, vaq.UsingMethod(m), vaq.WithStatsInto(&b))
		if err != nil {
			t.Fatal(err)
		}
		for ri := range regions {
			if !slices.Equal(outA[ri], outB[ri]) {
				t.Errorf("%v QueryAll region %d: %d ids in process, %d over HTTP", m, ri, len(outA[ri]), len(outB[ri]))
			}
		}
		if workOf(a) != workOf(b) {
			t.Errorf("%v QueryAll: work in process %v, over HTTP %v", m, workOf(a), workOf(b))
		}
	}
}

// TestRemoteBatchIsPruned pins what the shared batch planner gives the
// remote flavor: a backend receives only the regions whose MBR meets its
// bounds, in one round trip, and is not contacted when none do.
func TestRemoteBatchIsPruned(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	pts := vaq.UniformPoints(rng, 2000, vaq.UnitSquare())
	chunks := xSortedChunks(t, pts, 1000)
	oracle, err := vaq.NewEngine(pts, vaq.UnitSquare())
	if err != nil {
		t.Fatal(err)
	}
	re, counts := serveChunks(t, chunks)
	ctx := context.Background()
	left := []vaq.Region{
		vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.1, 0.3), 0.05)),
		vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.2, 0.7), 0.08)),
		vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.3, 0.5), 0.06)),
	}
	both := vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.5, 0.5), 0.1))
	right := vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.85, 0.2), 0.07))

	check := func(regions []vaq.Region, wantRequests, wantRegions [2]int64) {
		t.Helper()
		for _, n := range counts {
			n.requests.Store(0)
			n.regions.Store(0)
		}
		out, err := re.QueryAll(ctx, regions)
		if err != nil {
			t.Fatal(err)
		}
		for i, region := range regions {
			want, err := oracle.Query(ctx, region)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(out[i], want) {
				t.Errorf("region %d: %d ids, oracle %d", i, len(out[i]), len(want))
			}
		}
		for bi, n := range counts {
			if n.requests.Load() != wantRequests[bi] || n.regions.Load() != wantRegions[bi] {
				t.Errorf("backend %d saw %d requests carrying %d regions, want %d and %d",
					bi, n.requests.Load(), n.regions.Load(), wantRequests[bi], wantRegions[bi])
			}
		}
	}
	// Only the left backend is reached: the right one is not contacted.
	check(left, [2]int64{1, 0}, [2]int64{3, 0})
	// Mixed: each backend gets exactly its regions, in one round trip.
	check(append(append([]vaq.Region{}, left...), both, right), [2]int64{1, 1}, [2]int64{4, 2})
}

// TestRemoteCancellationIsNotABackendFailure: a caller deadline that fires
// after one backend answered and before the other did is the query's error
// — not a backend failure, and never the fast backend's partial ids.
func TestRemoteCancellationIsNotABackendFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	pts := vaq.UniformPoints(rng, 800, vaq.UnitSquare())
	f := startFixture(t, pts) // one fast backend over everything
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/info" {
			json.NewEncoder(w).Encode(wire.Info{Len: 10, Bounds: [4]float64{0, 0, 1, 1}, IDOffset: int64(len(pts))})
			return
		}
		// Answers only when the client hangs up (the server notices a closed
		// connection only once the request body has been drained).
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	}))
	defer stuck.Close()

	re, err := vaq.DialRemote(context.Background(), append(append([]string{}, f.urls...), stuck.URL))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	region := vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.5, 0.5), 0.2))
	ids, err := re.Query(ctx, region)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Query = %d ids, err %v; want context.DeadlineExceeded", len(ids), err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel2()
	if _, err := re.QueryAll(ctx2, []vaq.Region{region, region}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("QueryAll err = %v; want context.DeadlineExceeded", err)
	}
	if n := re.Dropped(); n != 0 {
		t.Errorf("Dropped() = %d: a caller deadline was counted as a failed backend call", n)
	}
}
