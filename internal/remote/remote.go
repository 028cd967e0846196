// Package remote is the fan-out client behind vaq.RemoteEngine: an area-
// query engine whose shards are areaserve processes reached over HTTP.
// It mirrors package shard's scatter-gather semantics — backends whose
// advertised bounds miss a region's MBR are pruned, per-backend results
// remap into global id space and merge into ascending order, statistics
// aggregate across the fan-out — so a remote engine answers every query
// byte-identically to a local engine over the union of its backends'
// points.
//
// Failure handling: unary queries (Query, QueryAll, Count, KNearest) are
// idempotent and retry transport-level failures per backend with
// exponential backoff; semantic errors (bad request, no data) and caller
// cancellation never retry. Config.Degraded selects the partial-failure
// policy: fail-fast (default) surfaces the first backend error, degraded
// drops backends that still fail after retries and serves from the
// survivors (erroring only when every live backend fails). Each streams
// are never retried mid-flight and always fail fast — frames already
// yielded cannot be unseen.
package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/wire"
)

// cancelStride is the number of stream frames processed between explicit
// context-cancellation checks, mirroring core's candidate-boundary
// stride: one check per frame would be pure overhead on the hot path,
// while a stride bounds cancellation latency to a few dozen cheap frame
// decodes.
const cancelStride = 64

// Backend describes one areaserve instance. Dial fills everything but URL
// from the backend's /v1/info.
type Backend struct {
	// URL is the server base ("http://host:port"), no trailing slash.
	URL string
	// IDOffset is added to the backend's local ids to form global ids.
	IDOffset int64
	// Bounds is the backend's data MBR, used to prune fan-out. A zero
	// (empty) rect disables pruning for this backend.
	Bounds geom.Rect
	// Len is the backend's point count (advisory; 0 skips KNearest).
	Len int
}

// Config tunes the client engine.
type Config struct {
	// Client is the HTTP client used for every request; nil uses a
	// dedicated client with sane defaults.
	Client *http.Client
	// PerTryTimeout bounds each unary attempt; 0 leaves attempts bounded
	// only by the caller's context.
	PerTryTimeout time.Duration
	// Retries is the number of extra attempts after a retryable unary
	// failure (transport error or 5xx). 0 disables retrying.
	Retries int
	// RetryBackoff is the sleep before the first retry, doubling per
	// attempt (default 50ms when Retries > 0).
	RetryBackoff time.Duration
	// Degraded selects the partial-failure policy: true drops backends
	// that fail after retries and merges the survivors; false (default)
	// fails the query on the first backend error.
	Degraded bool
}

// Engine fans area queries out to remote backends. It is immutable after
// construction and safe for concurrent use.
type Engine struct {
	backends []Backend
	cfg      Config
	client   *http.Client
	length   int
	bounds   geom.Rect
	dropped  atomic.Uint64 // degraded-mode: backend queries dropped
}

// New builds an engine over explicitly configured backends.
func New(backends []Backend, cfg Config) (*Engine, error) {
	if len(backends) == 0 {
		return nil, errors.New("remote: no backends")
	}
	e := &Engine{
		backends: append([]Backend(nil), backends...),
		cfg:      cfg,
		client:   cfg.Client,
		bounds:   geom.EmptyRect(),
	}
	if e.client == nil {
		e.client = &http.Client{}
	}
	if e.cfg.Retries > 0 && e.cfg.RetryBackoff <= 0 {
		e.cfg.RetryBackoff = 50 * time.Millisecond
	}
	for i, b := range e.backends {
		// The natural "bounds unknown" value is the zero Rect, but that is
		// a degenerate point at the origin, not an empty rectangle — it
		// would prune the backend from almost every fan-out. Normalize it
		// to the true empty rect, which disables pruning instead.
		if b.Bounds == (geom.Rect{}) {
			b.Bounds = geom.EmptyRect()
			e.backends[i].Bounds = b.Bounds
		}
		e.length += b.Len
		if !b.Bounds.IsEmpty() {
			e.bounds = e.bounds.Union(b.Bounds)
		}
	}
	return e, nil
}

// Dial discovers each URL's shape from GET /v1/info and builds an engine
// over the results: id offsets, bounds and sizes all come from the
// servers, so a client needs nothing but addresses. Each probe is a
// one-shot request (Connection: close): Dial leaves no idle connection in
// the client's pool, so nothing it started — the connection's goroutines
// on either end, and through the server's the engine behind it — outlives
// the call.
func Dial(ctx context.Context, urls []string, cfg Config) (*Engine, error) {
	if len(urls) == 0 {
		return nil, errors.New("remote: no backend URLs")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	backends := make([]Backend, len(urls))
	for i, u := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/v1/info", nil)
		if err != nil {
			return nil, fmt.Errorf("remote: %s: %w", u, err)
		}
		req.Close = true
		resp, err := client.Do(req)
		if err != nil {
			return nil, fmt.Errorf("remote: %s: %w", u, err)
		}
		var info wire.Info
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("remote: %s: decoding /v1/info: %w", u, err)
		}
		backends[i] = Backend{URL: u, IDOffset: info.IDOffset, Bounds: info.Rect(), Len: info.Len}
	}
	cfg.Client = client
	return New(backends, cfg)
}

// Len returns the total advertised point count across backends.
func (e *Engine) Len() int { return e.length }

// Bounds returns the union of the backends' advertised bounds.
func (e *Engine) Bounds() geom.Rect { return e.bounds }

// NumBackends returns the backend count.
func (e *Engine) NumBackends() int { return len(e.backends) }

// Dropped returns the cumulative number of backend queries dropped under
// the degraded partial-failure policy.
func (e *Engine) Dropped() uint64 { return e.dropped.Load() }

// survivors returns the indexes of backends whose bounds intersect the
// region's MBR (backends without bounds always survive).
func (e *Engine) survivors(region core.Region) []int {
	mbr := region.Bounds()
	var out []int
	for i, b := range e.backends {
		if b.Bounds.IsEmpty() || b.Bounds.Intersects(mbr) {
			out = append(out, i)
		}
	}
	return out
}

// backendMethod maps the caller's method to the one backends execute:
// with more than one backend each holds part of the dataset
// (core.PartitionMethod); a single backend holds all of it and executes
// the caller's method verbatim.
func (e *Engine) backendMethod(m core.Method) core.Method {
	if len(e.backends) > 1 {
		return core.PartitionMethod(m)
	}
	return m
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

// transientError marks a unary attempt failure as retryable: transport
// errors (connection refused, reset, truncated body) and responses whose
// wire code is internal (or missing). Semantic wire errors and context
// errors never carry the mark.
type transientError struct{ err error }

func (t *transientError) Error() string { return t.err.Error() }
func (t *transientError) Unwrap() error { return t.err }

func retryable(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// post runs one unary request against a backend with the retry protocol:
// up to 1+Retries attempts, each bounded by PerTryTimeout, deadline
// propagated via the wire.TimeoutHeader, exponential backoff between
// attempts, and no retry once the caller's own context is done.
func (e *Engine) post(ctx context.Context, baseURL, path string, body, dst any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("remote: encoding request: %w", err)
	}
	backoff := e.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		lastErr = e.postOnce(ctx, baseURL, path, payload, dst)
		if lastErr == nil {
			return nil
		}
		// The caller's context ending trumps everything — its error is
		// the query's error, and retrying against it is pointless.
		if err := ctx.Err(); err != nil {
			return err
		}
		// A deadline that fired while the caller is still alive was the
		// per-attempt budget, not the caller's — retryable by design.
		canRetry := retryable(lastErr) ||
			(e.cfg.PerTryTimeout > 0 && errors.Is(lastErr, context.DeadlineExceeded))
		if attempt >= e.cfg.Retries || !canRetry {
			return lastErr
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return ctx.Err()
		}
		backoff *= 2
	}
}

// postOnce is a single attempt: per-try timeout, deadline header, error
// classification.
func (e *Engine) postOnce(ctx context.Context, baseURL, path string, payload []byte, dst any) error {
	if e.cfg.PerTryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.PerTryTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	setTimeoutHeader(req, ctx)
	resp, err := e.client.Do(req)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return &transientError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		he := &httpError{status: resp.StatusCode}
		var we wire.Error
		if json.NewDecoder(resp.Body).Decode(&we) == nil && we.Code != "" {
			if we.Code != wire.CodeInternal {
				// Semantic failure: surface the sentinel-mapped error
				// (ErrNoData, context.DeadlineExceeded, ...) rather than
				// the transport wrapper — the code wins over the status.
				return we.Err()
			}
			he.body = &we
		}
		return &transientError{he}
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		return &transientError{fmt.Errorf("decoding response: %w", err)}
	}
	return nil
}

// setTimeoutHeader propagates ctx's remaining budget, if any, in integer
// milliseconds (rounded up so a sub-millisecond remainder still sends 1).
func setTimeoutHeader(req *http.Request, ctx context.Context) {
	if d, ok := ctx.Deadline(); ok {
		ms := time.Until(d).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(wire.TimeoutHeader, fmt.Sprintf("%d", ms))
	}
}

// remap converts a backend's local ids to global in place.
func remap(ids []int64, offset int64) []int64 {
	for i := range ids {
		ids[i] += offset
	}
	return ids
}

// observeFanOut records the scatter width into the trace when one rides
// along (nil-safe).
func observeFanOut(tr *obs.QueryTrace, alive int) { tr.SetFanOut(alive) }

// fanOut runs fn once per alive backend concurrently and gathers errors,
// applying the partial-failure policy: fail-fast returns the first error;
// degraded drops failing backends (counting them) unless every backend
// failed.
func (e *Engine) fanOut(alive []int, fn func(slot, bi int) error) error {
	errs := make([]error, len(alive))
	var wg sync.WaitGroup
	for slot, bi := range alive {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[slot] = fn(slot, bi)
		}()
	}
	wg.Wait()
	failed := 0
	var firstErr error
	for slot, err := range errs {
		if err == nil {
			continue
		}
		failed++
		if firstErr == nil {
			firstErr = fmt.Errorf("remote: backend %s: %w", e.backends[alive[slot]].URL, err)
		}
	}
	if failed == 0 {
		return nil
	}
	if !e.cfg.Degraded || failed == len(alive) {
		return firstErr
	}
	e.dropped.Add(uint64(failed))
	return nil
}

// QueryRegionSpec fans one area query out to the surviving backends and
// merges, mirroring shard.Engine.QueryRegionSpec: CountOnly sums counts
// without a merge, Limit truncates the merged result (each backend is
// asked for at most Limit, so the scatter materializes at most
// Limit×backends before truncation), spec.Dest backs the merged slice.
func (e *Engine) QueryRegionSpec(ctx context.Context, region core.Region, spec core.QuerySpec) ([]int64, core.Stats, error) {
	agg := core.Stats{Method: spec.Method}
	wr, err := wire.EncodeRegion(region)
	if err != nil {
		return nil, agg, fmt.Errorf("remote: %w", err)
	}
	alive := e.survivors(region)
	observeFanOut(spec.Trace, len(alive))
	if len(alive) == 0 {
		if err := ctx.Err(); err != nil || spec.CountOnly || spec.Dest == nil {
			return nil, agg, err
		}
		return spec.Dest[:0], agg, nil
	}
	req := wire.QueryRequest{Region: wr, Options: wire.Options{
		Method:    wire.MethodString(e.backendMethod(spec.Method)),
		CountOnly: spec.CountOnly,
		Limit:     spec.Limit,
	}}
	parts := make([][]int64, len(alive))
	stats := make([]core.Stats, len(alive))
	err = e.fanOut(alive, func(slot, bi int) error {
		var resp wire.QueryResponse
		if err := e.post(ctx, e.backends[bi].URL, "/v1/query", req, &resp); err != nil {
			return err
		}
		if resp.Stats != nil {
			stats[slot] = resp.Stats.ToStats()
		}
		if !spec.CountOnly {
			parts[slot] = remap(resp.IDs, e.backends[bi].IDOffset)
		}
		return nil
	})
	for _, st := range stats {
		agg.Add(st)
	}
	if err != nil {
		return nil, agg, err
	}
	if spec.CountOnly {
		if spec.Limit > 0 && agg.ResultSize > spec.Limit {
			agg.Finalize(spec.Limit)
		}
		return nil, agg, nil
	}
	var mergeStart time.Time
	if spec.Trace != nil {
		mergeStart = time.Now()
	}
	out := core.MergeSorted(spec.Dest, parts)
	if spec.Limit > 0 && len(out) > spec.Limit {
		out = out[:spec.Limit]
	}
	if spec.Trace != nil {
		spec.Trace.Add(obs.PhaseMerge, time.Since(mergeStart))
	}
	agg.Finalize(len(out))
	return out, agg, nil
}

// QueryRegionsSpec fans a batch out: each backend answers the whole batch
// in one /v1/queryall round trip, and per-region results merge across
// backends. Results align with regions, each in ascending global order.
func (e *Engine) QueryRegionsSpec(ctx context.Context, regions []core.Region, spec core.QuerySpec) ([][]int64, core.Stats, error) {
	agg := core.Stats{Method: spec.Method}
	if len(regions) == 0 {
		return [][]int64{}, agg, ctx.Err()
	}
	if spec.CountOnly && spec.Limit > 0 && len(e.backends) > 1 {
		// The batch wire response carries only aggregate counts, so the
		// per-region Limit cap cannot be applied to a multi-backend
		// count-only batch after the fact. Fall back to per-region unary
		// queries, which cap exactly.
		total := 0
		for _, region := range regions {
			_, st, err := e.QueryRegionSpec(ctx, region, spec)
			if err != nil {
				return nil, agg, err
			}
			total += st.ResultSize
			agg.Add(st)
		}
		agg.Finalize(total)
		return nil, agg, nil
	}
	req := wire.BatchRequest{
		Regions: make([]wire.Region, len(regions)),
		Options: wire.Options{
			Method:    wire.MethodString(e.backendMethod(spec.Method)),
			CountOnly: spec.CountOnly,
			Limit:     spec.Limit,
		},
	}
	for i, r := range regions {
		var err error
		if req.Regions[i], err = wire.EncodeRegion(r); err != nil {
			return nil, agg, fmt.Errorf("remote: region %d: %w", i, err)
		}
	}
	alive := make([]int, len(e.backends))
	for i := range alive {
		alive[i] = i
	}
	observeFanOut(spec.Trace, len(alive))
	perBackend := make([][][]int64, len(alive))
	stats := make([]core.Stats, len(alive))
	err := e.fanOut(alive, func(slot, bi int) error {
		var resp wire.BatchResponse
		if err := e.post(ctx, e.backends[bi].URL, "/v1/queryall", req, &resp); err != nil {
			return err
		}
		if len(resp.Results) != len(regions) {
			return fmt.Errorf("batch answered %d results for %d regions", len(resp.Results), len(regions))
		}
		if resp.Stats != nil {
			stats[slot] = resp.Stats.ToStats()
		}
		for _, ids := range resp.Results {
			remap(ids, e.backends[bi].IDOffset)
		}
		perBackend[slot] = resp.Results
		return nil
	})
	for _, st := range stats {
		agg.Add(st)
	}
	if err != nil {
		return nil, agg, err
	}
	out := make([][]int64, len(regions))
	parts := make([][]int64, 0, len(alive))
	resultSize := 0
	for ri := range regions {
		parts = parts[:0]
		for slot := range perBackend {
			if perBackend[slot] != nil {
				parts = append(parts, perBackend[slot][ri])
			}
		}
		merged := core.MergeSorted(nil, parts)
		if spec.Limit > 0 && len(merged) > spec.Limit {
			merged = merged[:spec.Limit]
		}
		if merged == nil {
			merged = []int64{}
		}
		out[ri] = merged
		resultSize += len(merged)
	}
	if spec.CountOnly {
		out = nil
		resultSize = agg.ResultSize
	}
	agg.Finalize(resultSize)
	return out, agg, nil
}

// EachRegion streams an area query, walking backends one after another
// (like the sharded engine walks shards) and yielding each frame as it
// arrives: global id plus the server-reported position. spec.Limit bounds
// total yields across backends. Streams never retry and always fail fast —
// an error mid-stream surfaces immediately even under the degraded
// policy, because frames already yielded cannot be withdrawn.
func (e *Engine) EachRegion(ctx context.Context, region core.Region, spec core.QuerySpec, yield func(id int64, pos geom.Point) bool) (core.Stats, error) {
	agg := core.Stats{Method: spec.Method}
	wr, err := wire.EncodeRegion(region)
	if err != nil {
		return agg, fmt.Errorf("remote: %w", err)
	}
	alive := e.survivors(region)
	observeFanOut(spec.Trace, len(alive))
	remaining := spec.Limit
	for _, bi := range alive {
		opts := wire.Options{Method: wire.MethodString(e.backendMethod(spec.Method))}
		if spec.Limit > 0 {
			opts.Limit = remaining
		}
		st, stopped, err := e.streamOne(ctx, e.backends[bi], wire.QueryRequest{Region: wr, Options: opts}, yield)
		agg.Add(st)
		if err != nil {
			agg.Finalize(agg.ResultSize)
			return agg, fmt.Errorf("remote: backend %s: %w", e.backends[bi].URL, err)
		}
		if stopped {
			break
		}
		if spec.Limit > 0 {
			remaining -= st.ResultSize
			if remaining <= 0 {
				break
			}
		}
	}
	agg.Finalize(agg.ResultSize)
	return agg, ctx.Err()
}

// streamOne runs one backend's /v1/each stream to completion (or yield
// stop). A stream that ends without an EOF frame was truncated by a
// disconnect and reports an error rather than passing as complete.
func (e *Engine) streamOne(ctx context.Context, b Backend, req wire.QueryRequest, yield func(id int64, pos geom.Point) bool) (core.Stats, bool, error) {
	var st core.Stats
	payload, err := json.Marshal(req)
	if err != nil {
		return st, false, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, b.URL+"/v1/each", bytes.NewReader(payload))
	if err != nil {
		return st, false, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	setTimeoutHeader(hreq, ctx)
	resp, err := e.client.Do(hreq)
	if err != nil {
		return st, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		he := &httpError{status: resp.StatusCode}
		var we wire.Error
		if json.NewDecoder(resp.Body).Decode(&we) == nil && we.Code != "" {
			if we.Code != wire.CodeInternal {
				return st, false, we.Err()
			}
			he.body = &we
		}
		return st, false, he
	}
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
				return st, false, err
			}
		}
		frames++
		var fr wire.Frame
		if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
			return st, false, fmt.Errorf("bad stream frame: %w", err)
		}
		if fr.EOF {
			if fr.Err != nil {
				if fr.Stats != nil {
					st = fr.Stats.ToStats()
				}
				return st, false, fr.Err.Err()
			}
			if fr.Stats != nil {
				st = fr.Stats.ToStats()
			}
			return st, false, nil
		}
		if !yield(fr.ID+b.IDOffset, geom.Point{X: fr.X, Y: fr.Y}) {
			// Count what was consumed; the server notices the closed
			// connection on its next write.
			st.ResultSize++
			return st, true, nil
		}
		st.ResultSize++
	}
	if err := sc.Err(); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return st, false, cerr
		}
		return st, false, err
	}
	return st, false, io.ErrUnexpectedEOF
}

// KNearest merges per-backend k-nearest answers with the multi-shard
// frontier of shard.Engine.KNearest: backends in increasing MINDIST(q,
// bounds) order, stopping once the next backend's bounds cannot beat the
// current k-th distance; candidates order by (distance², ascending global
// id) using distances recomputed client-side from the servers' bit-exact
// coordinates, so results match a local engine over the union exactly.
func (e *Engine) KNearest(ctx context.Context, q geom.Point, k int) ([]int64, core.Stats, error) {
	var stats core.Stats
	if e.length == 0 {
		return nil, stats, core.ErrNoData
	}
	if k <= 0 {
		return nil, stats, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}

	order := make([]int, 0, len(e.backends))
	mindist := make([]float64, len(e.backends))
	for bi, b := range e.backends {
		if b.Len == 0 {
			continue
		}
		order = append(order, bi)
		if b.Bounds.IsEmpty() {
			mindist[bi] = 0
		} else {
			mindist[bi] = b.Bounds.Dist2Point(q)
		}
	}
	sort.Slice(order, func(a, b int) bool { return mindist[order[a]] < mindist[order[b]] })

	var best []core.Neighbor
	req := wire.KNNRequest{Point: wire.FromPoint(q), K: k}
	expanded, failed := 0, 0
	var lastErr error
	for _, bi := range order {
		if len(best) == k && mindist[bi] > best[k-1].D2 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		b := e.backends[bi]
		expanded++
		var resp wire.KNNResponse
		if err := e.post(ctx, b.URL, "/v1/knearest", req, &resp); err != nil {
			if e.cfg.Degraded && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				e.dropped.Add(1)
				failed++
				lastErr = fmt.Errorf("remote: backend %s: %w", b.URL, err)
				continue
			}
			return nil, stats, fmt.Errorf("remote: backend %s: %w", b.URL, err)
		}
		if resp.Stats != nil {
			stats.Add(resp.Stats.ToStats())
		}
		if len(resp.Points) != len(resp.IDs) {
			return nil, stats, fmt.Errorf("remote: backend %s: %d points for %d ids", b.URL, len(resp.Points), len(resp.IDs))
		}
		for i, id := range resp.IDs {
			best = append(best, core.Neighbor{ID: id + b.IDOffset, D2: q.Dist2(resp.Points[i].Point())})
		}
		best = core.MergeNearest(best, k)
	}

	if expanded > 0 && failed == expanded {
		// Degraded tolerates partial loss, not total: with every expanded
		// backend gone there is nothing to answer from.
		return nil, stats, lastErr
	}
	out := make([]int64, len(best))
	for i, c := range best {
		out[i] = c.ID
	}
	stats.ResultSize = len(out)
	return out, stats, nil
}
