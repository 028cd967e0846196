package vaq

import (
	"context"
	"net/http"
	"time"

	"repro/internal/remote"
)

// RemoteEngine answers area queries by fanning out to remote areaserve
// backends over HTTP — the serving-layer Querier flavor. Each backend
// holds a contiguous chunk of the dataset; its /v1/info advertises the
// chunk's global id offset and two rectangles. The universe (bounds) is
// what the backend clips its cells to: the engine's own universe is the
// union over its backends, and a region must lie inside it. The pruning key
// (data_bounds, the MBR of the backend's points) decides the fan-out:
// queries scatter only to the backends whose key intersects the region's
// MBR, and a region inside the universe that meets no key answers empty
// without a round trip. A backend that cannot vouch for a fixed point set —
// a dynamic one, or a server older than the field — advertises no key and is
// pruned by its universe, that is, never inside it. Per-backend results
// remap into global id space and merge into ascending order, and statistics
// aggregate across the fan-out — so a RemoteEngine returns byte-identical
// results to a local engine over the union of its backends' points.
//
// Failure handling: unary queries (Query, QueryAll, Count) are idempotent
// and retry transport-level failures per backend (WithRemoteRetries); Each
// streams never retry. A backend that still fails after its retries fails
// the query: a RemoteEngine never answers from part of its backends.
//
// RemoteEngine implements Querier and is safe for concurrent use. It
// composes with WithMetrics exactly like the local flavors (flavor label
// "remote").
type RemoteEngine struct {
	partitioned
}

// WithRemoteTimeout bounds each unary request attempt a RemoteEngine
// makes; the remaining budget also rides the Vaq-Timeout-Ms header so the
// server abandons work the client stopped waiting for. 0 (the default)
// leaves attempts bounded only by the query's context.
func WithRemoteTimeout(d time.Duration) Option {
	return func(c *config) { c.remote.PerTryTimeout = d }
}

// WithRemoteRetries retries failed unary backend requests up to n extra
// attempts with exponential backoff starting at backoff (<= 0 picks a
// 50ms default). Only transport-level failures and 5xx responses retry;
// semantic errors and caller cancellation never do. Streams (Each) never
// retry mid-flight.
func WithRemoteRetries(n int, backoff time.Duration) Option {
	return func(c *config) { c.remote.Retries, c.remote.RetryBackoff = n, backoff }
}

// WithRemoteClient sets the http.Client a RemoteEngine uses (connection
// pooling, TLS, proxies). The default is a dedicated plain client.
func WithRemoteClient(hc *http.Client) Option {
	return func(c *config) { c.remote.Client = hc }
}

// DialRemote discovers each URL's shape from its /v1/info and builds a
// RemoteEngine over the backends. The discovery probes are one-shot
// requests: a dial leaves no idle connection in the client's pool; the
// first query opens the connections the engine then keeps alive.
// Engine-construction options that only make sense locally (WithStore,
// WithShards, ...) are ignored; the remote-specific options above plus
// WithMetrics apply.
func DialRemote(ctx context.Context, urls []string, opts ...Option) (*RemoteEngine, error) {
	cfg := newConfig(opts)
	backends, err := remote.Discover(ctx, urls, cfg.remote.Client)
	if err != nil {
		return nil, err
	}
	return NewRemoteEngine(backends, opts...)
}

// RemoteBackend configures one backend for NewRemoteEngine: its base URL,
// the offset added to its local ids, its point count and two rectangles.
// Bounds is the pruning key — it must contain every point the backend can
// answer with, and a zero (empty) one disables pruning for the backend.
// Universe is the rectangle the backend's engine was built over; zero means
// "as Bounds", which is what a backend list written before the field
// existed says. With both zero the engine's own universe is unknown (the
// backends then refuse what lies outside theirs). Len is advisory: it feeds
// the engine's Len and nothing else.
type RemoteBackend = remote.Backend

// NewRemoteEngine builds a RemoteEngine over explicitly configured
// backends, for callers that already know every backend's id offset,
// pruning key and universe (or want to skip the /v1/info round trips).
func NewRemoteEngine(backends []RemoteBackend, opts ...Option) (*RemoteEngine, error) {
	cfg := newConfig(opts)
	q := newQuerier(&cfg, flavorRemote)
	// The kernel exports the scatter series the sharded flavor does, under
	// flavor="remote".
	re, err := remote.New(backends, cfg.remote, newShardMetrics(cfg.metrics, q.qm))
	if err != nil {
		return nil, err
	}
	return &RemoteEngine{overKernel(q, re.Engine)}, nil
}

// NumBackends returns the backend count.
func (e *RemoteEngine) NumBackends() int { return e.k.NumShards() }

// Dropped returns the cumulative number of backend calls that failed while
// the caller's context was live — each one failed its query. A caller's
// own deadline or cancellation is never counted.
func (e *RemoteEngine) Dropped() uint64 { return e.k.Dropped() }
