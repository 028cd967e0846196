package vaq

import (
	"context"
	"net/http"

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
// a dynamic one — advertises no key and is pruned by its universe, that is,
// never inside it. Per-backend results remap into global id space and merge
// into ascending order, and statistics aggregate across the fan-out — so a
// RemoteEngine returns byte-identical results to a local engine over the
// union of its backends' points.
//
// Failure handling: every backend call is one attempt under the caller's
// context, and a backend call that fails fails the query — a RemoteEngine
// never answers from part of its backends. The context is the only budget;
// its remaining time rides the Vaq-Timeout-Ms header, so a backend abandons
// work the client stopped waiting for. Query, QueryAll and Count are
// idempotent: a caller may retry a failed one whole.
//
// RemoteEngine implements Querier and is safe for concurrent use. It
// composes with WithMetrics exactly like the local flavors (flavor label
// "remote").
type RemoteEngine struct {
	querier
}

// WithRemoteClient sets the http.Client a RemoteEngine uses (connection
// pooling, TLS, proxies). The default is a dedicated plain client.
func WithRemoteClient(hc *http.Client) Option {
	return func(c *config) { c.remoteClient = hc }
}

// DialRemote discovers each URL's shape from its /v1/info and builds a
// RemoteEngine over the backends. A backend whose /v1/info fails, names no
// universe, or claims global ids another backend holds — the same URL twice
// among them — fails the dial with an error naming it. The discovery probes
// are one-shot requests: a dial leaves no idle connection in the client's
// pool; the first query opens the connections the engine then keeps alive.
// Engine-construction options that only make sense locally (WithStore,
// WithShards, ...) are ignored; WithRemoteClient and WithMetrics apply.
func DialRemote(ctx context.Context, urls []string, opts ...Option) (*RemoteEngine, error) {
	cfg := newConfig(opts)
	q := newQuerier(&cfg, flavorRemote)
	var err error
	if q.k, err = remote.Dial(ctx, urls, cfg.remoteClient, newShardMetrics(cfg.metrics, flavorRemote)); err != nil {
		return nil, err
	}
	return &RemoteEngine{q}, nil
}

// NumBackends returns the backend count.
func (e *RemoteEngine) NumBackends() int { return e.k.NumShards() }

// Dropped returns the cumulative number of backend calls that failed while
// the caller's context was live — each one failed its query. A caller's
// own deadline or cancellation is never counted.
func (e *RemoteEngine) Dropped() uint64 { return e.k.Dropped() }
