package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	vaq "repro"
	"repro/internal/geom"
	"repro/internal/wire"
)

func testEngine(t *testing.T, n int) *vaq.Engine {
	t.Helper()
	eng, err := vaq.NewEngine(testPoints(n), vaq.NewRect(0, 0, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// testPoints returns testEngine's n points, indexed by id.
func testPoints(n int) []vaq.Point {
	rng := rand.New(rand.NewSource(42))
	pts := make([]vaq.Point, n)
	for i := range pts {
		pts[i] = vaq.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

func testRegion() vaq.Region {
	pg := vaq.MustPolygon([]vaq.Point{
		{X: 0.2, Y: 0.2}, {X: 0.8, Y: 0.25}, {X: 0.7, Y: 0.8}, {X: 0.25, Y: 0.75},
	})
	return vaq.PolygonRegion(pg)
}

func post(t *testing.T, srv *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeInto(t *testing.T, resp *http.Response, dst any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
}

func TestQueryMatchesLocal(t *testing.T) {
	eng := testEngine(t, 400)
	srv := httptest.NewServer(NewHandler(eng, Config{}))
	defer srv.Close()

	region := testRegion()
	want, err := eng.Query(context.Background(), region)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("test region matched nothing; enlarge it")
	}

	wr, err := wire.EncodeRegion(region)
	if err != nil {
		t.Fatal(err)
	}
	var got wire.QueryResponse
	decodeInto(t, post(t, srv, "/v1/query", wire.QueryRequest{Region: wr}), &got)
	if len(got.IDs) != len(want) {
		t.Fatalf("got %d ids, want %d", len(got.IDs), len(want))
	}
	for i := range want {
		if got.IDs[i] != want[i] {
			t.Fatalf("id %d: got %d want %d", i, got.IDs[i], want[i])
		}
	}
	if got.Count != len(want) {
		t.Errorf("count %d, want %d", got.Count, len(want))
	}
	if got.Stats == nil || got.Stats.ResultSize != len(want) {
		t.Errorf("stats missing or wrong: %+v", got.Stats)
	}
}

func TestCount(t *testing.T) {
	eng := testEngine(t, 400)
	srv := httptest.NewServer(NewHandler(eng, Config{}))
	defer srv.Close()

	region := testRegion()
	want, err := eng.Query(context.Background(), region)
	if err != nil {
		t.Fatal(err)
	}
	wr, _ := wire.EncodeRegion(region)

	local, err := vaq.Count(context.Background(), eng, region)
	if err != nil || local != len(want) {
		t.Fatalf("local count %d (err %v), want %d", local, err, len(want))
	}
	var cnt wire.QueryResponse
	decodeInto(t, post(t, srv, "/v1/query",
		wire.QueryRequest{Region: wr, Options: wire.Options{CountOnly: true}}), &cnt)
	if cnt.Count != local {
		t.Errorf("count %d, want %d", cnt.Count, local)
	}
	if cnt.IDs != nil {
		t.Errorf("count returned ids: %v", cnt.IDs)
	}
	// count_only on /v1/query is the one spelling: there is no count route,
	// and no k-nearest one.
	for _, path := range []string{"/v1/count", "/v1/knearest"} {
		resp := post(t, srv, path, wire.QueryRequest{Region: wr})
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	// A query answers with its full id set: there is no "limit" option,
	// and a request that carries one is refused like any unknown field.
	resp := post(t, srv, "/v1/query", map[string]any{"region": wr, "options": map[string]any{"limit": 3}})
	var we wire.Error
	decodeInto2(t, resp, &we)
	if resp.StatusCode != http.StatusBadRequest || we.Code != wire.CodeBadRequest {
		t.Errorf("stale limit field: status %d code %q, want 400 %q", resp.StatusCode, we.Code, wire.CodeBadRequest)
	}
}

// batchBody is a /v1/queryall body: json.Marshal of each region's
// QueryRequest and a newline.
func batchBody(t *testing.T, regions []vaq.Region, opts ...wire.Options) []byte {
	t.Helper()
	var body []byte
	for i, r := range regions {
		wr, err := wire.EncodeRegion(r)
		if err != nil {
			t.Fatal(err)
		}
		line, _ := json.Marshal(wire.QueryRequest{Region: wr, Options: opts[i%len(opts)]})
		body = append(append(body, line...), '\n')
	}
	return body
}

// TestQueryAll pins /v1/queryall's bytes: a line per region, json.Marshal
// of its QueryResponse without statistics, then one of the total count and
// the statistics, in one body of stated length — no region line under
// count_only — and a 400 naming the region whose options differ from the
// first line's.
func TestQueryAll(t *testing.T) {
	eng := testEngine(t, 400)
	srv := httptest.NewServer(NewHandler(eng, Config{}))
	defer srv.Close()

	inside := testRegion()
	empty := vaq.CircleRegion(vaq.NewCircle(vaq.Point{X: 0.001, Y: 0.001}, 1e-9))
	regions := []vaq.Region{inside, empty, inside}
	line := func(m wire.QueryResponse) []byte {
		b, _ := json.Marshal(m)
		return append(b, '\n')
	}
	for _, opts := range []wire.Options{{}, {CountOnly: true}} {
		var st vaq.Stats
		qopts := []vaq.QueryOpt{vaq.WithStatsInto(&st)}
		if opts.CountOnly {
			qopts = append(qopts, vaq.CountOnly())
		}
		results, err := eng.QueryAll(context.Background(), regions, qopts...)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, ids := range results {
			want = append(want, line(wire.QueryResponse{IDs: ids, Count: len(ids)})...)
		}
		ws := wire.FromStats(st)
		want = append(want, line(wire.QueryResponse{Count: st.ResultSize, Stats: &ws})...)

		resp, err := srv.Client().Post(srv.URL+"/v1/queryall", "application/x-ndjson", bytes.NewReader(batchBody(t, regions, opts)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: status %d, err %v: %s", opts, resp.StatusCode, err, got)
		}
		if resp.ContentLength != int64(len(got)) {
			t.Errorf("%+v: Content-Length %d for a %d-byte body", opts, resp.ContentLength, len(got))
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%+v: served\n%s\nwant\n%s", opts, got, want)
		}
		if lines := bytes.Count(got, []byte{'\n'}); lines != len(results)+1 || st.ResultSize == 0 {
			t.Errorf("%+v: %d lines for %d results, %d matches", opts, lines, len(results), st.ResultSize)
		}
	}

	mixed := batchBody(t, regions, wire.Options{}, wire.Options{}, wire.Options{CountOnly: true})
	resp, err := srv.Client().Post(srv.URL+"/v1/queryall", "application/x-ndjson", bytes.NewReader(mixed))
	if err != nil {
		t.Fatal(err)
	}
	var we wire.Error
	err = json.NewDecoder(resp.Body).Decode(&we)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusBadRequest || we.Code != wire.CodeBadRequest || !strings.Contains(we.Message, "region 2") {
		t.Errorf("lines with differing options: status %d, %+v (err %v); want a 400 naming region 2", resp.StatusCode, we, err)
	}
}

// TestUnaryResponsesAreEncoderBytes: /v1/query answers with the bytes
// json.Encoder writes for its response — the appended form changes none —
// in one body of stated length, not chunked.
func TestUnaryResponsesAreEncoderBytes(t *testing.T) {
	eng := testEngine(t, 4000) // the id array passes net/http's 2 KB chunking threshold
	srv := httptest.NewServer(NewHandler(eng, Config{}))
	defer srv.Close()
	wr, _ := wire.EncodeRegion(testRegion())
	for _, opts := range []wire.Options{{}, {CountOnly: true}} {
		resp := post(t, srv, "/v1/query", wire.QueryRequest{Region: wr, Options: opts})
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: status %d, err %v: %s", opts, resp.StatusCode, err, body)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%+v: Content-Length %d, transfer encoding %v for a %d-byte body", opts, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		var got wire.QueryResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(got)
		if !bytes.Equal(body, want.Bytes()) {
			t.Errorf("%+v: served\n %s\njson.Encoder writes\n %s", opts, body, want.Bytes())
		}
	}
}

func TestEachStreams(t *testing.T) {
	eng, pts := testEngine(t, 400), testPoints(400)
	srv := httptest.NewServer(NewHandler(eng, Config{}))
	defer srv.Close()

	region := testRegion()
	want, err := eng.Query(context.Background(), region)
	if err != nil {
		t.Fatal(err)
	}
	wr, _ := wire.EncodeRegion(region)

	resp := post(t, srv, "/v1/each", wire.QueryRequest{Region: wr})
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("content type %q", ct)
	}
	var ids []int64
	sawEOF := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var fr wire.Frame
		if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		if fr.EOF {
			sawEOF = true
			if fr.Err != nil {
				t.Fatalf("stream error: %+v", fr.Err)
			}
			if fr.Stats == nil || fr.Stats.ResultSize != len(want) {
				t.Errorf("EOF stats: %+v, want result_size %d", fr.Stats, len(want))
			}
			break
		}
		if fr.ID < 0 || fr.ID >= int64(len(pts)) || pts[fr.ID] != vaq.Pt(fr.X, fr.Y) {
			t.Fatalf("frame %d at %v,%v is not an input point", fr.ID, fr.X, fr.Y)
		}
		ids = append(ids, fr.ID)
	}
	if !sawEOF {
		t.Fatal("stream ended without EOF frame")
	}
	// Each streams in discovery order; compare as sets via sorted copy.
	if len(ids) != len(want) {
		t.Fatalf("streamed %d ids, want %d", len(ids), len(want))
	}
	seen := make(map[int64]bool, len(ids))
	for _, id := range ids {
		seen[id] = true
	}
	for _, id := range want {
		if !seen[id] {
			t.Errorf("id %d missing from stream", id)
		}
	}
}

// doneHandler wraps h and closes done when a request it serves returns.
func doneHandler(h http.Handler) (http.Handler, <-chan struct{}) {
	done := make(chan struct{})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(done)
		h.ServeHTTP(w, r)
	}), done
}

// heldEngine streams the real engine's answer but, once the handler has
// flushed its first streamFlushEvery results, holds the stream until the
// request's context ends — the client hung up — and then ignores that
// context, so the only thing that can stop the rest of the stream is the
// handler's yield answering false. stopped reports whether it did.
type heldEngine struct {
	*vaq.Engine
	stopped atomic.Bool
}

func (h *heldEngine) Each(ctx context.Context, region vaq.Region, yield func(int64, vaq.Point) bool, opts ...vaq.QueryOpt) error {
	yielded := 0
	return h.Engine.Each(context.Background(), region, func(id int64, p vaq.Point) bool {
		if !yield(id, p) {
			h.stopped.Store(true)
			return false
		}
		if yielded++; yielded == streamFlushEvery {
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Second):
			}
		}
		return true
	}, opts...)
}

// TestEachClientDisconnect: a client that hangs up mid-stream makes the
// handler's next failed write stop the query, and the handler returns.
func TestEachClientDisconnect(t *testing.T) {
	eng := &heldEngine{Engine: testEngine(t, 2000)}
	h, done := doneHandler(NewHandler(eng, Config{}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	// The whole universe: every point is a result, so the stream is long.
	whole := vaq.PolygonRegion(vaq.MustPolygon([]vaq.Point{
		{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1},
	}))
	wr, err := wire.EncodeRegion(whole)
	if err != nil {
		t.Fatal(err)
	}
	resp := post(t, srv, "/v1/each", wire.QueryRequest{Region: wr})
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no first frame")
	}
	var fr wire.Frame
	if err := json.Unmarshal(sc.Bytes(), &fr); err != nil || fr.EOF {
		t.Fatalf("first frame %s (%v), want a data frame", sc.Bytes(), err)
	}
	resp.Body.Close() // mid-stream disconnect

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler still running 5s after the client hung up")
	}
	if !eng.stopped.Load() {
		t.Error("the stream ran to its end into a dead connection: a failed write did not stop it")
	}
}

// floodEngine streams one point forever, whatever its context says: a
// result set larger than any socket buffer.
type floodEngine struct{ *vaq.Engine }

func (floodEngine) Each(_ context.Context, _ vaq.Region, yield func(int64, vaq.Point) bool, _ ...vaq.QueryOpt) error {
	for id := int64(0); yield(id, vaq.Pt(0.5, 0.5)); id++ {
	}
	return nil
}

// TestEachSlowReaderBoundedByDeadline: a client that sends a /v1/each
// request with a deadline and never reads the response cannot hold the
// handler past that deadline plus writeGrace — its blocked write fails.
func TestEachSlowReaderBoundedByDeadline(t *testing.T) {
	h, done := doneHandler(NewHandler(floodEngine{testEngine(t, 100)}, Config{}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	wr, err := wire.EncodeRegion(testRegion())
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(wire.QueryRequest{Region: wr})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const timeoutMs = 200
	if _, err := fmt.Fprintf(conn, "POST /v1/each HTTP/1.1\r\nHost: vaq\r\nContent-Type: application/json\r\n%s: %d\r\nContent-Length: %d\r\n\r\n%s",
		wire.TimeoutHeader, timeoutMs, len(body), body); err != nil {
		t.Fatal(err)
	}

	// Nothing is read from conn: the handler fills the socket buffers and
	// blocks in a write until the write deadline fails it.
	bound := timeoutMs*time.Millisecond + writeGrace + 3*time.Second
	select {
	case <-done:
	case <-time.After(bound):
		t.Fatalf("handler still writing %v after a %dms deadline to a client that never reads", bound, timeoutMs)
	}
}

// TestTrickledBodyBoundedByDeadline: a client that announces a large body
// under a 200 ms deadline and then sends it one byte every 100 ms cannot hold
// the handler in the body's read past that deadline, whatever MaxTimeout
// allows, and is answered with the deadline code, not a bad request.
func TestTrickledBodyBoundedByDeadline(t *testing.T) {
	h, done := doneHandler(NewHandler(testEngine(t, 100), Config{MaxTimeout: 30 * time.Second}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const timeoutMs = 200
	if _, err := fmt.Fprintf(conn, "POST /v1/query HTTP/1.1\r\nHost: vaq\r\nContent-Type: application/json\r\n%s: %d\r\nContent-Length: 1000000\r\n\r\n",
		wire.TimeoutHeader, timeoutMs); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if _, err := conn.Write([]byte(" ")); err != nil {
					return // the server gave up on the body
				}
			}
		}
	}()

	bound := timeoutMs*time.Millisecond + 2*time.Second
	select {
	case <-done:
	case <-time.After(bound):
		t.Fatalf("handler still reading a trickled body %v after a %dms deadline", bound, timeoutMs)
	}

	conn.SetReadDeadline(time.Now().Add(bound))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	var we wire.Error
	decodeInto2(t, resp, &we)
	if resp.StatusCode != http.StatusGatewayTimeout || we.Code != wire.CodeDeadline {
		t.Errorf("trickled body: status %d code %q, want 504 %q", resp.StatusCode, we.Code, wire.CodeDeadline)
	}
}

// TestDeadlineKeepsConnection: a query that runs past its Vaq-Timeout-Ms
// answers with the deadline code and leaves its kept-alive connection
// usable, so the next request on it is answered too.
func TestDeadlineKeepsConnection(t *testing.T) {
	srv := httptest.NewServer(NewHandler(&firstSlowEngine{Engine: testEngine(t, 100)}, Config{}))
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	wr, _ := wire.EncodeRegion(testRegion())
	body, _ := json.Marshal(wire.QueryRequest{Region: wr})
	br := bufio.NewReader(conn)
	for i, want := range []int{http.StatusGatewayTimeout, http.StatusOK} {
		if _, err := fmt.Fprintf(conn, "POST /v1/query HTTP/1.1\r\nHost: vaq\r\nContent-Type: application/json\r\n%s: 100\r\nContent-Length: %d\r\n\r\n%s",
			wire.TimeoutHeader, len(body), body); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want || resp.Close {
			t.Fatalf("request %d: status %d (close=%t): %s; want %d on a kept-alive connection", i, resp.StatusCode, resp.Close, msg, want)
		}
		var we wire.Error
		if i == 0 && (json.Unmarshal(msg, &we) != nil || we.Code != wire.CodeDeadline) {
			t.Fatalf("request 0: %s, want code %q", msg, wire.CodeDeadline)
		}
	}
}

// firstSlowEngine runs its first query 50 ms past the context's death, as a
// query that checks its context only between steps does, forcing a deadline
// error; it answers every later one.
type firstSlowEngine struct {
	*vaq.Engine
	calls atomic.Int32
}

func (e *firstSlowEngine) Query(ctx context.Context, region vaq.Region, opts ...vaq.QueryOpt) ([]int64, error) {
	if e.calls.Add(1) == 1 {
		<-ctx.Done()
		time.Sleep(50 * time.Millisecond)
		return nil, ctx.Err()
	}
	return e.Engine.Query(ctx, region, opts...)
}

func TestInfo(t *testing.T) {
	eng := testEngine(t, 100)
	srv := httptest.NewServer(NewHandler(eng, Config{IDOffset: 1000, Flavor: "static"}))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	var info wire.Info
	decodeInto(t, resp, &info)
	if info.Len != 100 || info.IDOffset != 1000 || info.Flavor != "static" {
		t.Errorf("info: %+v", info)
	}
	if b, err := info.Universe(); err != nil || b != eng.Bounds() {
		t.Errorf("bounds %v (err %v), want %v", b, err, eng.Bounds())
	}
	key, err := info.PruningKey()
	if err != nil || info.DataBounds == nil || key != eng.DataBounds() || key.Area() >= eng.Bounds().Area() {
		t.Errorf("data_bounds %v (err %v), want the data MBR %v, smaller than the universe", info.DataBounds, err, eng.DataBounds())
	}
}

// TestInfoDataBoundsByFlavor: a flavor whose point set is fixed advertises
// the MBR of its points — the sharded one as the union of its shards' — and
// a dynamic engine, whose MBR a later Insert can grow past what a client has
// cached, advertises none, and neither does its snapshot.
func TestInfoDataBoundsByFlavor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	universe := vaq.NewRect(0, 0, 1, 1)
	pts := vaq.UniformPoints(rng, 400, vaq.NewRect(0.2, 0.3, 0.7, 0.6))
	static, err := vaq.NewEngine(pts, universe)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := vaq.NewShardedEngine(pts, universe, vaq.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	dynamic := vaq.NewDynamicEngine(universe)
	for _, p := range pts {
		if _, _, err := dynamic.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	mbr := vaq.NewRect(pts[0].X, pts[0].Y, pts[0].X, pts[0].Y)
	for _, p := range pts {
		mbr = mbr.ExtendPoint(p)
	}
	for _, tc := range []struct {
		name string
		eng  Engine
		want *[4]float64
	}{
		{"static", static, &[4]float64{mbr.MinX, mbr.MinY, mbr.MaxX, mbr.MaxY}},
		{"sharded", sharded, &[4]float64{mbr.MinX, mbr.MinY, mbr.MaxX, mbr.MaxY}},
		{"dynamic", dynamic, nil},
		{"snapshot", dynamic.Snapshot(), nil},
	} {
		rr := httptest.NewRecorder()
		NewHandler(tc.eng, Config{}).ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/info", nil))
		var info wire.Info
		if err := json.Unmarshal(rr.Body.Bytes(), &info); err != nil {
			t.Fatalf("%s: %v: %s", tc.name, err, rr.Body)
		}
		if u, err := info.Universe(); err != nil || u != universe {
			t.Errorf("%s: bounds %v (err %v), want the universe", tc.name, info.Bounds, err)
		}
		switch {
		case tc.want == nil && (info.DataBounds != nil || strings.Contains(rr.Body.String(), "data_bounds")):
			t.Errorf("%s advertises data_bounds %v: %s", tc.name, info.DataBounds, rr.Body)
		case tc.want != nil && (info.DataBounds == nil || *info.DataBounds != *tc.want):
			t.Errorf("%s: data_bounds %v, want %v", tc.name, info.DataBounds, *tc.want)
		}
	}
}

// TestInfoUniverseWithoutArea: a dynamic engine over the empty rectangle
// has a universe of ±Inf, which JSON cannot carry. /v1/info sends the
// all-zero bounds for it, which DialRemote refuses by name; and a universe
// with area but infinite edges, which the encoder refuses, answers a 500
// carrying a wire.Error, never a 200 with an empty body.
func TestInfoUniverseWithoutArea(t *testing.T) {
	srv := httptest.NewServer(NewHandler(vaq.NewDynamicEngine(geom.EmptyRect()), Config{}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	var info wire.Info
	decodeInto(t, resp, &info)
	if info.Bounds != ([4]float64{}) || info.DataBounds != nil {
		t.Errorf("empty universe: bounds %v, data_bounds %v; want all zero and none", info.Bounds, info.DataBounds)
	}
	if _, err := vaq.DialRemote(context.Background(), []string{srv.URL}); err == nil || !strings.Contains(err.Error(), "not a rectangle with area") {
		t.Errorf("DialRemote over an empty universe: %v, want the bounds refused by name", err)
	}

	inf := math.Inf(1)
	rr := httptest.NewRecorder()
	NewHandler(vaq.NewDynamicEngine(vaq.NewRect(-inf, -inf, inf, inf)), Config{}).
		ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/info", nil))
	var we wire.Error
	if err := json.Unmarshal(rr.Body.Bytes(), &we); err != nil || rr.Code != http.StatusInternalServerError || we.Code != wire.CodeInternal {
		t.Errorf("infinite universe: status %d, body %q (%v); want a 500 %q", rr.Code, rr.Body, err, wire.CodeInternal)
	}
}

// TestUnnamedMethodRunsTheDefault: the engine owns the default method. A
// request that names none runs what a local query with no options runs —
// the same work counters — and a named method still selects its own.
func TestUnnamedMethodRunsTheDefault(t *testing.T) {
	eng := testEngine(t, 400)
	srv := httptest.NewServer(NewHandler(eng, Config{}))
	defer srv.Close()
	region := testRegion()
	wr, _ := wire.EncodeRegion(region)
	var ran []wire.Stats
	for _, method := range []string{"", "traditional"} {
		var opts []vaq.QueryOpt
		if method != "" {
			m, err := wire.ParseMethod(method)
			if err != nil {
				t.Fatal(err)
			}
			opts = append(opts, vaq.UsingMethod(m))
		}
		var st vaq.Stats
		want, err := eng.Query(context.Background(), region, append(opts, vaq.WithStatsInto(&st))...)
		if err != nil {
			t.Fatal(err)
		}
		var got wire.QueryResponse
		decodeInto(t, post(t, srv, "/v1/query", wire.QueryRequest{Region: wr, Options: wire.Options{Method: method}}), &got)
		if len(got.IDs) != len(want) || got.Stats == nil || *got.Stats != wire.FromStats(st) {
			t.Errorf("method %q: %d ids, stats %+v; a local query gives %d ids, stats %+v", method, len(got.IDs), got.Stats, len(want), wire.FromStats(st))
		}
		ran = append(ran, wire.FromStats(st))
	}
	if ran[0] == ran[1] {
		t.Errorf("the default and traditional did the same work %+v: the test cannot tell them apart", ran[0])
	}
}

func TestMetricsMounted(t *testing.T) {
	reg := vaq.NewMetricsRegistry()
	rng := rand.New(rand.NewSource(1))
	pts := make([]vaq.Point, 64)
	for i := range pts {
		pts[i] = vaq.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	eng, err := vaq.NewEngine(pts, vaq.NewRect(0, 0, 1, 1), vaq.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(eng, Config{Metrics: reg}))
	defer srv.Close()

	wr, _ := wire.EncodeRegion(testRegion())
	post(t, srv, "/v1/query", wire.QueryRequest{Region: wr}).Body.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	decodeInto(t, resp, &snap)
	if len(snap) == 0 {
		t.Error("metrics snapshot empty after a query")
	}
	resp, err = srv.Client().Get(srv.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "vaq_") {
		t.Errorf("prometheus format missing vaq_ metrics:\n%s", b)
	}
}

func TestErrorMapping(t *testing.T) {
	eng := testEngine(t, 100)
	srv := httptest.NewServer(NewHandler(eng, Config{}))
	defer srv.Close()

	// Malformed JSON body.
	resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", resp.StatusCode)
	}

	// A body is one JSON value, and so is each line of a /v1/queryall body:
	// whatever follows it — a word, a second value — is refused, on every
	// endpoint. Trailing whitespace is not data; on /v1/queryall a newline
	// ends the line, and a whitespace line after it is an empty message.
	wr, _ := wire.EncodeRegion(testRegion())
	single, _ := json.Marshal(wire.QueryRequest{Region: wr})
	for _, path := range []string{"/v1/query", "/v1/queryall", "/v1/each"} {
		for tail, want := range map[string]int{
			" \n\t":          http.StatusOK,
			" \t\r\n":        http.StatusOK,
			" trailing":      http.StatusBadRequest,
			` {"garbage":1}`: http.StatusBadRequest,
		} {
			if path == "/v1/queryall" && tail == " \n\t" {
				want = http.StatusBadRequest
			}
			resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(string(single)+tail))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("%s with %q after the body: status %d, want %d", path, tail, resp.StatusCode, want)
			}
		}
	}

	// Structurally invalid region.
	var we wire.Error
	bad := wire.QueryRequest{Region: wire.Region{Kind: "blob"}}
	resp = post(t, srv, "/v1/query", bad)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad region: status %d", resp.StatusCode)
	}

	// A hole that crosses its outer ring: AddHole refuses it, so the request
	// is a caller error, not an even-odd region.
	sq := func(x0, y0, x1, y1 float64) []wire.Coord {
		return []wire.Coord{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}}
	}
	crossing := wire.Region{Kind: wire.KindPolygon, Outer: sq(0.2, 0.2, 0.6, 0.6), Holes: [][]wire.Coord{sq(0.4, 0.4, 0.8, 0.8)}}
	resp = post(t, srv, "/v1/query", wire.QueryRequest{Region: crossing})
	decodeInto2(t, resp, &we)
	if resp.StatusCode != http.StatusBadRequest || we.Code != wire.CodeBadRequest {
		t.Errorf("a hole across the outer ring: status %d code %q, want 400 %q", resp.StatusCode, we.Code, wire.CodeBadRequest)
	}

	// Unknown method.
	resp = post(t, srv, "/v1/query",
		wire.QueryRequest{Region: wr, Options: wire.Options{Method: "dijkstra"}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown method: status %d", resp.StatusCode)
	}

	// Empty engine → ErrNoData → 422 with no_data code.
	dyn := vaq.NewDynamicEngine(vaq.NewRect(0, 0, 1, 1))
	esrv := httptest.NewServer(NewHandler(dyn, Config{}))
	defer esrv.Close()
	resp = post(t, esrv, "/v1/query", wire.QueryRequest{Region: wr})
	if resp.StatusCode != 422 {
		t.Errorf("query on empty: status %d", resp.StatusCode)
	}
	we = wire.Error{}
	decodeInto2(t, resp, &we)
	if we.Code != wire.CodeNoData {
		t.Errorf("code %q, want %q", we.Code, wire.CodeNoData)
	}
	if !errors.Is(we.Err(), vaq.ErrNoData) {
		t.Errorf("decoded error %v does not match ErrNoData", we.Err())
	}
}

// TestAnchorFieldRejected pins the removal of the wire "anchor" override:
// the decoder never checked that the anchor lay in the region, so a seed
// placed outside it started a BFS that could not reach the region and the
// server answered 200 with count 0. The field is now unknown, hence a 400.
func TestAnchorFieldRejected(t *testing.T) {
	srv := httptest.NewServer(NewHandler(testEngine(t, 20000), Config{}))
	defer srv.Close()

	const region = `"region":{"kind":"polygon","outer":[[0.1,0.1],[0.3,0.1],[0.3,0.3],[0.1,0.3]]`
	var plain wire.QueryResponse
	decodeInto(t, post(t, srv, "/v1/query", json.RawMessage(`{`+region+`}}`)), &plain)
	if plain.Count == 0 {
		t.Fatal("un-anchored query matched nothing")
	}

	resp := post(t, srv, "/v1/query", json.RawMessage(`{`+region+`,"anchor":[0.9,0.9]}}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("anchored query: status %d, want 400", resp.StatusCode)
	}
	var we wire.Error
	decodeInto2(t, resp, &we)
	if we.Code != wire.CodeBadRequest {
		t.Errorf("anchored query: code %q, want %q", we.Code, wire.CodeBadRequest)
	}
}

// decodeInto2 decodes a non-200 JSON body.
func decodeInto2(t *testing.T, resp *http.Response, dst any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
}

// ctxEngine records the context deadline its Query sees.
type ctxEngine struct {
	*vaq.Engine
	sawDeadline atomic.Int64 // remaining ms at Query entry, -1 if none
}

func (c *ctxEngine) Query(ctx context.Context, region vaq.Region, opts ...vaq.QueryOpt) ([]int64, error) {
	if d, ok := ctx.Deadline(); ok {
		c.sawDeadline.Store(time.Until(d).Milliseconds())
	} else {
		c.sawDeadline.Store(-1)
	}
	return c.Engine.Query(ctx, region, opts...)
}

func TestDeadlinePropagation(t *testing.T) {
	ce := &ctxEngine{Engine: testEngine(t, 100)}
	srv := httptest.NewServer(NewHandler(ce, Config{}))
	defer srv.Close()

	wr, _ := wire.EncodeRegion(testRegion())
	data, _ := json.Marshal(wire.QueryRequest{Region: wr})

	// Without the header: no deadline.
	post(t, srv, "/v1/query", wire.QueryRequest{Region: wr}).Body.Close()
	if got := ce.sawDeadline.Load(); got != -1 {
		t.Errorf("no header: query saw deadline %dms, want none", got)
	}

	// With the header: a deadline within (0, 30s].
	req, _ := http.NewRequest("POST", srv.URL+"/v1/query", bytes.NewReader(data))
	req.Header.Set(wire.TimeoutHeader, "30000")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := ce.sawDeadline.Load(); got <= 0 || got > 30000 {
		t.Errorf("header 30000: query saw remaining %dms", got)
	}

	// MaxTimeout caps the requested budget.
	capped := httptest.NewServer(NewHandler(ce, Config{MaxTimeout: 50 * time.Millisecond}))
	defer capped.Close()
	req, _ = http.NewRequest("POST", capped.URL+"/v1/query", bytes.NewReader(data))
	req.Header.Set(wire.TimeoutHeader, "60000")
	if resp, err = capped.Client().Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := ce.sawDeadline.Load(); got <= 0 || got > 50 {
		t.Errorf("capped: query saw remaining %dms, want <=50", got)
	}

	// A budget at or beyond what a Duration can hold must not wrap negative
	// into a context born expired: it is the cap when there is one and no
	// deadline (or one centuries away) otherwise.
	for _, hdr := range []string{"9223372036854", "9223372036855", "9223372036854775807"} {
		for _, s := range []*httptest.Server{srv, capped} {
			req, _ = http.NewRequest("POST", s.URL+"/v1/query", bytes.NewReader(data))
			req.Header.Set(wire.TimeoutHeader, hdr)
			if resp, err = s.Client().Do(req); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			got := ce.sawDeadline.Load()
			switch {
			case resp.StatusCode != http.StatusOK:
				t.Errorf("header %s (capped=%t): status %d, want 200", hdr, s == capped, resp.StatusCode)
			case s == capped && (got <= 0 || got > 50):
				t.Errorf("header %s, capped: query saw remaining %dms, want (0, 50]", hdr, got)
			case s == srv && got != -1 && got < 1<<40:
				t.Errorf("header %s, uncapped: query saw remaining %dms", hdr, got)
			}
		}
	}

	// A garbage header is a bad request.
	req, _ = http.NewRequest("POST", srv.URL+"/v1/query", bytes.NewReader(data))
	req.Header.Set(wire.TimeoutHeader, "soon")
	if resp, err = srv.Client().Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage timeout header: status %d", resp.StatusCode)
	}

	// An already-expired budget fails with the deadline code.
	slow := &slowEngine{Engine: ce.Engine}
	ssrv := httptest.NewServer(NewHandler(slow, Config{}))
	defer ssrv.Close()
	req, _ = http.NewRequest("POST", ssrv.URL+"/v1/query", bytes.NewReader(data))
	req.Header.Set(wire.TimeoutHeader, "1")
	if resp, err = ssrv.Client().Do(req); err != nil {
		t.Fatal(err)
	}
	var we wire.Error
	status := resp.StatusCode
	decodeInto2(t, resp, &we)
	if status != 504 || we.Code != wire.CodeDeadline {
		t.Errorf("expired budget: status %d code %q, want 504 %q", status, we.Code, wire.CodeDeadline)
	}
}

// slowEngine blocks until the context dies, forcing a deadline error.
type slowEngine struct{ *vaq.Engine }

func (s *slowEngine) Query(ctx context.Context, region vaq.Region, opts ...vaq.QueryOpt) ([]int64, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func TestBodySizeCap(t *testing.T) {
	eng := testEngine(t, 100)
	srv := httptest.NewServer(NewHandler(eng, Config{}))
	defer srv.Close()

	big := `{"region":{"kind":"polygon","outer":[` +
		strings.Repeat(`[0.1,0.1],`, maxBodyBytes/10) + `[0.2,0.2]]}}`
	resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json",
		strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body: status %d, want 400", resp.StatusCode)
	}
}

// TestServedQueryAllocs pins what one /v1/query of a 10-vertex polygon that
// names its method allocates, at 34: the request and the recorder (11 of
// them), then the handler's reading and decoding the body (a defined
// method's name is not copied out of it), preparing the polygon (two: the
// prepared form and one edge array), the option set (held in the call, and
// a defined method's option is built once, not per request), the query
// and the response.
func TestServedQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates inside sync.Pool")
	}
	eng := testEngine(t, 2000)
	h := NewHandler(eng, Config{})
	region := vaq.PolygonRegion(vaq.RandomQueryPolygon(rand.New(rand.NewSource(9)), 10, 0.01, vaq.UnitSquare()))
	wr, err := wire.EncodeRegion(region)
	if err != nil {
		t.Fatal(err)
	}
	if len(wr.Outer) != 10 {
		t.Fatalf("region has %d vertices, want 10", len(wr.Outer))
	}
	body, err := json.Marshal(wire.QueryRequest{Region: wr, Options: wire.Options{Method: wire.MethodString(vaq.VoronoiBFS)}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Query(context.Background(), region)
	if err != nil || len(want) == 0 {
		t.Fatalf("local query: %d ids, err %v", len(want), err)
	}
	var rec *httptest.ResponseRecorder
	serve := func() {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	}
	serve()
	allocs := testing.AllocsPerRun(50, serve)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got, err := wire.DecodeQueryResponse(rec.Body.Bytes(), nil); err != nil || got.Count != len(want) {
		t.Fatalf("served count %d (err %v), local %d", got.Count, err, len(want))
	}
	t.Logf("%.0f allocs per served query", allocs)
	if allocs > 34 {
		t.Fatalf("/v1/query of a 10-vertex polygon: %.0f allocs, want <= 34", allocs)
	}
}
