package vaq

import (
	"context"
	"net/http"
	"time"

	"repro/internal/remote"
)

// RemoteEngine answers area queries by fanning out to remote areaserve
// backends over HTTP — the serving-layer Querier flavor. Each backend
// holds a contiguous chunk of the dataset (its /v1/info advertises the
// chunk's global id offset and bounds); queries scatter to the backends
// whose bounds intersect the region's MBR, per-backend results remap into
// global id space and merge into ascending order, and statistics
// aggregate across the fan-out — so a RemoteEngine returns byte-identical
// results to a local engine over the union of its backends' points.
//
// Failure handling: unary queries (Query, QueryAll, Count, KNearest) are
// idempotent and retry transport-level failures per backend
// (WithRemoteRetries); Each streams never retry. WithDegradedFanOut
// selects the partial-failure policy — by default a backend failure (after
// retries) fails the query; degraded drops the failed backends and serves
// from the survivors, erroring only when every relevant backend fails.
//
// RemoteEngine implements Querier and is safe for concurrent use. It
// composes with WithResultCache and WithMetrics exactly like the local
// flavors (flavor label "remote").
type RemoteEngine struct {
	re        *remote.Engine
	rc        *ResultCache // nil without WithResultCache
	cacheSalt uint64
	qm        *queryMetrics // nil without WithMetrics
}

// WithRemoteTimeout bounds each unary request attempt a RemoteEngine
// makes; the remaining budget also rides the Vaq-Timeout-Ms header so the
// server abandons work the client stopped waiting for. 0 (the default)
// leaves attempts bounded only by the query's context.
func WithRemoteTimeout(d time.Duration) Option {
	return func(c *config) { c.remotePerTry = d }
}

// WithRemoteRetries retries failed unary backend requests up to n extra
// attempts with exponential backoff starting at backoff (<= 0 picks a
// 50ms default). Only transport-level failures and 5xx responses retry;
// semantic errors and caller cancellation never do. Streams (Each) never
// retry mid-flight.
func WithRemoteRetries(n int, backoff time.Duration) Option {
	return func(c *config) { c.remoteRetries, c.remoteBackoff = n, backoff }
}

// WithDegradedFanOut switches the RemoteEngine's partial-failure policy
// from fail-fast to degraded: backends that still fail after retries are
// dropped from the fan-out and the query is answered from the survivors
// (possibly missing their points), erroring only when every relevant
// backend fails. The drop count is visible via RemoteEngine.Dropped.
func WithDegradedFanOut() Option {
	return func(c *config) { c.remoteDegraded = true }
}

// WithRemoteClient sets the http.Client a RemoteEngine uses (connection
// pooling, TLS, proxies). The default is a dedicated plain client.
func WithRemoteClient(hc *http.Client) Option {
	return func(c *config) { c.remoteClient = hc }
}

// DialRemote discovers each URL's shape from its /v1/info and builds a
// RemoteEngine over the backends. The discovery probes are one-shot
// requests: a dial leaves no idle connection in the client's pool; the
// first query opens the connections the engine then keeps alive.
// Engine-construction options that only
// make sense locally (WithStore, WithShards, ...) are ignored; the
// remote-specific options above plus WithResultCache and WithMetrics
// apply.
func DialRemote(ctx context.Context, urls []string, opts ...Option) (*RemoteEngine, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	re, err := remote.Dial(ctx, urls, remoteConfig(cfg))
	if err != nil {
		return nil, err
	}
	return wrapRemote(re, cfg), nil
}

// NewRemoteEngine builds a RemoteEngine over explicitly configured
// backends, for callers that already know every backend's id offset and
// bounds (or want to skip the /v1/info round trips).
func NewRemoteEngine(backends []RemoteBackend, opts ...Option) (*RemoteEngine, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	bs := make([]remote.Backend, len(backends))
	for i, b := range backends {
		bs[i] = remote.Backend{URL: b.URL, IDOffset: b.IDOffset, Bounds: b.Bounds, Len: b.Len}
	}
	re, err := remote.New(bs, remoteConfig(cfg))
	if err != nil {
		return nil, err
	}
	return wrapRemote(re, cfg), nil
}

// RemoteBackend configures one backend for NewRemoteEngine. A zero
// (empty) Bounds disables MBR pruning for the backend; a zero Len skips
// it during KNearest.
type RemoteBackend struct {
	URL      string
	IDOffset int64
	Bounds   Rect
	Len      int
}

func remoteConfig(cfg config) remote.Config {
	return remote.Config{
		Client:        cfg.remoteClient,
		PerTryTimeout: cfg.remotePerTry,
		Retries:       cfg.remoteRetries,
		RetryBackoff:  cfg.remoteBackoff,
		Degraded:      cfg.remoteDegraded,
	}
}

func wrapRemote(re *remote.Engine, cfg config) *RemoteEngine {
	e := &RemoteEngine{re: re, rc: cfg.rcache, cacheSalt: nextCacheSalt()}
	if cfg.metrics != nil {
		e.qm = newQueryMetrics(cfg.metrics, flavorRemote)
		if cfg.rcache != nil {
			registerCacheMetrics(cfg.metrics, flavorRemote, cfg.rcache)
		}
	}
	return e
}

// Query implements Querier, consulting the result cache when one was
// attached. Results are in ascending global id order from the fan-out
// merge.
func (e *RemoteEngine) Query(ctx context.Context, region Region, opts ...QueryOpt) ([]int64, error) {
	p := resolve(opts)
	return cachedQuery(ctx, e.re, flavorRemote, e.qm, e.rc, e.cacheSalt, 0, region, &p)
}

// QueryAll implements Querier: each backend answers the whole batch in
// one round trip, and per-region results merge across backends.
func (e *RemoteEngine) QueryAll(ctx context.Context, regions []Region, opts ...QueryOpt) ([][]int64, error) {
	p := resolve(opts)
	start := beginQuery(e.qm, &p, flavorRemote)
	out, st, err := e.re.QueryRegionsSpec(ctx, regions, p.spec())
	if p.stats != nil {
		*p.stats = st
	}
	endBatch(e.qm, &p, start, len(regions), &st, err)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Each implements Querier, streaming backends one after another, each in
// its server-side discovery order; global ids from different backends
// interleave, so no overall id ordering is implied. Streams always fail
// fast — a mid-stream backend failure surfaces immediately, even under
// the degraded policy.
func (e *RemoteEngine) Each(ctx context.Context, region Region, yield func(id int64, p Point) bool, opts ...QueryOpt) error {
	p := resolve(opts)
	start := beginQuery(e.qm, &p, flavorRemote)
	st, err := e.re.EachRegion(ctx, region, p.spec(), yield)
	if p.stats != nil {
		*p.stats = st
	}
	endQuery(e.qm, &p, start, &st, err)
	return err
}

// KNearest returns the k stored points nearest to q in increasing
// distance order (ties broken by ascending global id), merging per-backend
// answers with the same bounds-frontier walk the sharded engine uses —
// backends provably unable to improve the current k-th distance are never
// contacted.
func (e *RemoteEngine) KNearest(ctx context.Context, q Point, k int) ([]int64, Stats, error) {
	return e.re.KNearest(ctx, q, k)
}

// Len returns the total advertised point count across backends.
func (e *RemoteEngine) Len() int { return e.re.Len() }

// Bounds returns the union of the backends' advertised bounds.
func (e *RemoteEngine) Bounds() Rect { return e.re.Bounds() }

// NumBackends returns the backend count.
func (e *RemoteEngine) NumBackends() int { return e.re.NumBackends() }

// Dropped returns the cumulative number of backend queries dropped under
// the degraded partial-failure policy (always 0 without
// WithDegradedFanOut).
func (e *RemoteEngine) Dropped() uint64 { return e.re.Dropped() }
