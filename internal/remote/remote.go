// Package remote is the HTTP transport behind vaq.RemoteEngine: it makes an
// areaserve process a shard.Partition. Everything about answering a query
// from several partitions — pruning backends whose advertised bounds miss
// the region, the strict-method upgrade when more than one backend shares
// the dataset, the concurrent fan-out, failing the query when a backend
// fails, merging into ascending global id order — is package shard's
// kernel, which Dial returns; what lives here is discovering the backends
// and one partition call over the wire: append the request (AppendJSON),
// POST it once, read the response body whole (one io.ReadFull when it
// states its length) and decode it in one pass — ids straight into the
// caller's reuse buffer — then add the backend's id offset. The batch call
// (/v1/queryall) reads its body the same way but stays on encoding/json. A
// remote engine therefore answers every query byte-identically to a local
// engine over the union of its backends' points.
//
// Failure handling: a backend call is one attempt under the caller's
// context, whose remaining budget crosses the wire in the Vaq-Timeout-Ms
// header. A call that fails — transport error, error response, truncated
// body or stream — fails the query; nothing is retried, and an Each stream
// could not be, since frames already yielded cannot be unseen. Unary
// queries are idempotent: a caller may run a failed one again whole.
package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/shard"
	"repro/internal/wire"
)

// cancelStride is the number of stream frames processed between explicit
// context-cancellation checks, mirroring core's candidate-boundary
// stride: one check per frame would be pure overhead on the hot path,
// while a stride bounds cancellation latency to a few dozen cheap frame
// decodes.
const cancelStride = 64

// backend is one areaserve instance as its /v1/info describes it.
type backend struct {
	// URL is the server base ("http://host:port"), no trailing slash.
	URL string
	// IDOffset is added to the backend's local ids to form global ids.
	IDOffset int64
	// Bounds is the pruning key: the backend is skipped for a region whose
	// MBR misses it, so it holds every point the backend can answer with —
	// its advertised data_bounds, or its universe when it vouches for
	// nothing tighter.
	Bounds geom.Rect
	// Universe is the rectangle the backend clips its cells to and admits
	// regions by (/v1/info's bounds); the client engine's universe is the
	// union over its backends.
	Universe geom.Rect
	// Len is the backend's point count; it feeds the kernel's Len.
	Len int
}

// end is one past the backend's last global id.
func (b backend) end() int64 { return b.IDOffset + int64(b.Len) }

// Dial discovers each URL's shape (discover) and returns the scatter-gather
// kernel over one partition per backend, all calling through client. client
// may be nil (a dedicated plain client); met, when non-nil, instruments the
// kernel's scatter. The scatter pool is as wide as the backend list: every
// surviving backend is contacted concurrently, and a lone survivor on the
// calling goroutine. The kernel is immutable and safe for concurrent use.
func Dial(ctx context.Context, urls []string, client *http.Client, met *shard.Metrics) (*shard.Engine, error) {
	if client == nil {
		client = &http.Client{}
	}
	backends, err := discover(ctx, urls, client)
	if err != nil {
		return nil, err
	}
	parts := make([]shard.Partition, len(backends))
	universe := geom.EmptyRect()
	for i, b := range backends {
		universe = universe.Union(b.Universe)
		parts[i] = &backendPartition{client: client, b: b}
	}
	return shard.Over(parts, universe, len(parts), met), nil
}

// discover reads each URL's shape from GET /v1/info: id offsets, universe,
// pruning key and sizes all come from the servers, so a client needs
// nothing but addresses. A backend that answers anything but 200,
// advertises a bounds with no area, a data_bounds that is not a finite
// rectangle inside its bounds, or a negative id_offset or len fails the
// dial; so do two backends whose id ranges [id_offset, id_offset+len)
// overlap — the same URL twice among them — since the union of their
// answers would count the shared ids twice. Each probe is a one-shot request
// (Connection: close): discover leaves no idle connection in the client's
// pool, so nothing it started — the connection's goroutines on either end,
// and through the server's the engine behind it — outlives the call.
func discover(ctx context.Context, urls []string, client *http.Client) ([]backend, error) {
	if len(urls) == 0 {
		return nil, errors.New("remote: no backend URLs")
	}
	backends := make([]backend, len(urls))
	for i, u := range urls {
		var err error
		if backends[i], err = probe(ctx, client, u); err != nil {
			return nil, fmt.Errorf("remote: %s/v1/info: %w", u, err)
		}
	}
	for j, b := range backends {
		for _, a := range backends[:j] {
			if a.IDOffset < b.end() && b.IDOffset < a.end() {
				return nil, fmt.Errorf("remote: %s holds ids [%d, %d) and %s ids [%d, %d): id ranges overlap",
					a.URL, a.IDOffset, a.end(), b.URL, b.IDOffset, b.end())
			}
		}
	}
	return backends, nil
}

// probe is one one-shot GET /v1/info, read into the backend it describes.
func probe(ctx context.Context, client *http.Client, baseURL string) (backend, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/info", nil)
	if err != nil {
		return backend{}, err
	}
	req.Close = true
	resp, err := client.Do(req)
	if err != nil {
		return backend{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return backend{}, responseError(resp)
	}
	var info wire.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return backend{}, fmt.Errorf("decoding: %w", err)
	}
	if info.IDOffset < 0 || info.Len < 0 || info.IDOffset > math.MaxInt64-int64(info.Len) {
		return backend{}, fmt.Errorf("id_offset %d and len %d do not spell an id range", info.IDOffset, info.Len)
	}
	universe, err := info.Universe()
	if err != nil {
		return backend{}, err
	}
	key, err := info.PruningKey()
	if err != nil {
		return backend{}, err
	}
	return backend{URL: baseURL, IDOffset: info.IDOffset, Bounds: key, Universe: universe, Len: info.Len}, nil
}

type httpError struct {
	status int
	body   *wire.Error
}

func (h *httpError) Error() string {
	if h.body != nil {
		return fmt.Sprintf("http %d: %s: %s", h.status, h.body.Code, h.body.Message)
	}
	return fmt.Sprintf("http %d", h.status)
}

// responseError classifies a non-200 response, unary or stream: a semantic
// wire code surfaces as the sentinel it maps to (ErrNoData,
// context.DeadlineExceeded, ...) — the code wins over the status — and an
// internal or missing one as an *httpError.
func responseError(resp *http.Response) error {
	he := &httpError{status: resp.StatusCode}
	var we wire.Error
	if json.NewDecoder(resp.Body).Decode(&we) == nil && we.Code != "" {
		if we.Code != wire.CodeInternal {
			return we.Err()
		}
		he.body = &we
	}
	return he
}

// post is one unary request against the backend: POST payload under the
// caller's context, whose remaining budget crosses the wire in
// wire.TimeoutHeader, read the 200 response's body whole into a pooled
// buffer and hand it to decode, which must keep nothing that aliases it.
// There is no retry: a failed call fails the query, and the caller may run
// a whole idempotent query again.
func (p *backendPartition) post(ctx context.Context, path string, payload []byte, decode func(body []byte) error) error {
	resp, err := p.send(ctx, path, payload)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	body, err := wire.ReadBody(resp.Body, resp.ContentLength, *buf)
	*buf = body
	if err != nil {
		return fmt.Errorf("reading response: %w", err)
	}
	if err := decode(body); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return nil
}

// send POSTs a JSON payload to the backend's path with ctx's remaining
// budget, if any, in the deadline header (whole milliseconds, at least 1),
// and returns a 200 response for the caller to read and close. A failed
// round trip returns the client's error; any other status, its
// responseError.
func (p *backendPartition) send(ctx context.Context, path string, payload []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.b.URL+path, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if d, ok := ctx.Deadline(); ok {
		req.Header.Set(wire.TimeoutHeader, strconv.FormatInt(max(time.Until(d).Milliseconds(), 1), 10))
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, responseError(resp)
	}
	return resp, nil
}

// backendPartition is one backend as the kernel's Partition: each method
// is one wire call through the client every backend of the engine shares,
// answered in global id space.
type backendPartition struct {
	client *http.Client
	b      backend
}

func (p *backendPartition) Bounds() geom.Rect { return p.b.Bounds }
func (p *backendPartition) Len() int          { return p.b.Len }
func (p *backendPartition) String() string    { return "backend " + p.b.URL }

// wireOptions is the part of a spec that crosses the wire.
func wireOptions(spec core.QuerySpec) wire.Options {
	return wire.Options{
		Method:    wire.MethodString(spec.Method),
		CountOnly: spec.CountOnly,
	}
}

// remap converts a backend's local ids to global in place.
func (p *backendPartition) remap(ids []int64) []int64 {
	for i := range ids {
		ids[i] += p.b.IDOffset
	}
	return ids
}

func (p *backendPartition) Query(ctx context.Context, region core.Region, spec core.QuerySpec) ([]int64, core.Stats, error) {
	wr, err := wire.EncodeRegion(region)
	if err != nil {
		return nil, core.Stats{}, err
	}
	payload, err := wire.QueryRequest{Region: wr, Options: wireOptions(spec)}.AppendJSON(nil)
	if err != nil {
		return nil, core.Stats{}, fmt.Errorf("remote: encoding request: %w", err)
	}
	var resp wire.QueryResponse
	if err := p.post(ctx, "/v1/query", payload, func(body []byte) (err error) {
		resp, err = wire.DecodeQueryResponse(body, spec.Dest) // straight into the caller's buffer
		return err
	}); err != nil {
		return nil, core.Stats{}, err
	}
	ids := p.remap(resp.IDs)
	if ids == nil && spec.Dest != nil && !spec.CountOnly {
		ids = spec.Dest[:0] // an empty result with a reuse buffer is not nil
	}
	return ids, toStats(resp.Stats), nil
}

// QueryRegions makes the backend a shard.RegionsQuerier: a batch is one
// /v1/queryall round trip.
func (p *backendPartition) QueryRegions(ctx context.Context, regions []core.Region, spec core.QuerySpec) ([][]int64, core.Stats, error) {
	req := wire.BatchRequest{Regions: make([]wire.Region, len(regions)), Options: wireOptions(spec)}
	for i, r := range regions {
		var err error
		if req.Regions[i], err = wire.EncodeRegion(r); err != nil {
			return nil, core.Stats{}, fmt.Errorf("region %d: %w", i, err)
		}
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, core.Stats{}, fmt.Errorf("remote: encoding request: %w", err)
	}
	var resp wire.BatchResponse
	if err := p.post(ctx, "/v1/queryall", payload, func(body []byte) error {
		return json.NewDecoder(bytes.NewReader(body)).Decode(&resp)
	}); err != nil {
		return nil, core.Stats{}, err
	}
	out := make([][]int64, len(resp.Results))
	for i, ids := range resp.Results {
		out[i] = p.remap(ids)
	}
	return out, toStats(resp.Stats), nil
}

// Each streams the backend's /v1/each frames as they arrive: global id
// plus the server-reported position.
func (p *backendPartition) Each(ctx context.Context, region core.Region, spec core.QuerySpec, yield func(id int64, pos geom.Point) bool) (core.Stats, error) {
	wr, err := wire.EncodeRegion(region)
	if err != nil {
		return core.Stats{}, err
	}
	return p.streamOne(ctx, wire.QueryRequest{Region: wr, Options: wireOptions(spec)}, yield)
}

// toStats decodes a response's optional statistics.
func toStats(ws *wire.Stats) core.Stats {
	if ws == nil {
		return core.Stats{}
	}
	return ws.ToStats()
}

// streamOne runs the backend's /v1/each stream to completion (or yield
// stop). A stream that ends without an EOF frame was truncated by a
// disconnect and reports an error rather than passing as complete.
func (p *backendPartition) streamOne(ctx context.Context, req wire.QueryRequest, yield func(id int64, pos geom.Point) bool) (core.Stats, error) {
	var st core.Stats
	payload, err := req.AppendJSON(nil)
	if err != nil {
		return st, err
	}
	resp, err := p.send(ctx, "/v1/each", payload)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	frames := 0
	for sc.Scan() {
		// Cancellation check on frame boundaries (core's cancelStride
		// idiom): a canceled context does eventually tear down the body
		// read through the request's transport, but that only fires on the
		// next network read — a consumer wedged between buffered frames, or
		// a slow yield, would otherwise keep draining the buffer after the
		// caller gave up.
		if frames%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return st, err
			}
		}
		frames++
		var fr wire.Frame
		if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
			return st, fmt.Errorf("bad stream frame: %w", err)
		}
		if fr.EOF {
			if fr.Stats != nil {
				st = fr.Stats.ToStats()
			}
			if fr.Err != nil {
				return st, fr.Err.Err()
			}
			return st, nil
		}
		st.ResultSize++ // what was consumed, whatever yield answers
		if !yield(fr.ID+p.b.IDOffset, geom.Point{X: fr.X, Y: fr.Y}) {
			return st, nil // the server notices the closed connection on its next write
		}
	}
	if err := sc.Err(); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return st, cerr
		}
		return st, err
	}
	return st, io.ErrUnexpectedEOF
}
