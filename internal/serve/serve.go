// Package serve exposes any vaq engine flavor over HTTP as an area-query
// backend: the full Querier surface — unary Query (a count is its
// count_only option) and QueryAll, plus server-streamed Each as chunked
// NDJSON — speaking the canonical wire codec (package wire), with
// client deadlines propagated from the Vaq-Timeout-Ms header into every
// query's context. An area route reads its request body whole into a
// pooled buffer and decodes it in one pass (wire.DecodeQueryRequest: the
// body on /v1/query and /v1/each, each line on /v1/queryall). /v1/query has
// the engine answer into a pooled id slice; it and /v1/queryall append
// their response into the same body buffer, written in one Write with a
// Content-Length. cmd/areaserve is the binary around it; the handler itself
// is dependency-free stdlib net/http, mountable into any mux, and safe for
// any number of concurrent requests (the engines already are).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	vaq "repro"
	"repro/internal/wire"
)

// Engine is what the handler serves: the Querier surface plus the size and
// universe accessors every vaq engine provides. Bounds feeds /v1/info's
// bounds field.
type Engine interface {
	vaq.Querier
	Len() int
	Bounds() vaq.Rect
}

// dataBounded is the engine whose point set is fixed, a *vaq.Engine of any
// shard count, so the MBR of its points can be vouched for as /v1/info's
// data_bounds. A dynamic engine is not one, on purpose — its data MBR grows
// after a client has dialled, and a client holding the old one would prune
// a backend that holds an answer.
type dataBounded interface{ DataBounds() vaq.Rect }

// Config tunes a handler.
type Config struct {
	// IDOffset is the global id of this backend's local id 0, advertised
	// in /v1/info so a fan-out client can remap results without
	// configuration. Serve the i-th contiguous chunk of a dataset and set
	// the chunk's start index here.
	IDOffset int64
	// Flavor is a free-form backend label for /v1/info ("static",
	// "sharded", ...).
	Flavor string
	// Metrics, when non-nil, is mounted at /metrics (JSON, ?format=prom
	// for Prometheus text). Build the engine with vaq.WithMetrics on the
	// same registry to see its query counters there.
	Metrics *vaq.MetricsRegistry
	// MaxTimeout caps the client-requested deadline; 0 means no cap.
	MaxTimeout time.Duration
}

const (
	// maxBodyBytes caps a request body; a larger one is a bad request.
	maxBodyBytes = 16 << 20
	// streamFlushEvery is the frame interval between explicit flushes on
	// /v1/each streams.
	streamFlushEvery = 64
)

type handler struct {
	eng Engine
	cfg Config
}

// writeGrace is how long past a request's deadline its response may still
// be written: room to deliver the error body or terminal frame that reports
// the deadline. A client that stops reading holds the handler, its
// goroutine and its query no longer than that.
const writeGrace = time.Second

// NewHandler returns the HTTP handler serving eng. Routes:
//
//	POST /v1/query     one area query        → wire.QueryResponse
//	POST /v1/queryall  a batch, a request line per region → response lines (package wire)
//	POST /v1/each      streamed area query   → NDJSON wire.Frame lines
//	GET  /v1/info      backend shape         → wire.Info
//	GET  /metrics      registry snapshot (when Config.Metrics is set)
//
// Errors return a wire.Error JSON body with a classifying code; the
// /v1/each stream reports errors in its terminal EOF frame instead, since
// the status line is already on the wire when a query fails mid-stream.
func NewHandler(eng Engine, cfg Config) http.Handler {
	h := &handler{eng: eng, cfg: cfg}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", h.area(true, h.query))
	mux.HandleFunc("POST /v1/queryall", h.area(false, h.queryAll))
	mux.HandleFunc("POST /v1/each", h.area(true, h.each))
	mux.HandleFunc("GET /v1/info", h.info)
	if h.cfg.Metrics != nil {
		mux.Handle("GET /metrics", vaq.MetricsHandler(h.cfg.Metrics))
	}
	return mux
}

// requestContext derives the query context: the request's own context
// (canceled by client disconnect — cancellation over the wire is free)
// bounded by the Vaq-Timeout-Ms header when present, so a propagated
// deadline expires server-side even if the connection lingers.
func (h *handler) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := h.cfg.MaxTimeout // <= 0: no cap
	if hdr := r.Header.Get(wire.TimeoutHeader); hdr != "" {
		ms, err := strconv.ParseInt(hdr, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("serve: bad %s header %q", wire.TimeoutHeader, hdr)
		}
		// A budget beyond what a Duration can hold would wrap negative and
		// be born expired: it leaves d at the cap, or at no deadline.
		if ms <= int64(math.MaxInt64/time.Millisecond) {
			if hd := time.Duration(ms) * time.Millisecond; d <= 0 || hd < d {
				d = hd
			}
		}
	}
	if d <= 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// writeJSON writes a 200 with the JSON form of v, or a 500 when v has none
// (a NaN or ±Inf has no JSON number).
func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, &wire.Error{Code: wire.CodeInternal, Message: fmt.Sprintf("serve: encoding the response: %v", err)})
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(append(b, '\n'))
}

// writeError writes the classified error body. Client-side cancellation
// usually never reads it — the connection is gone — but the body keeps
// curl sessions and proxies honest.
func writeError(w http.ResponseWriter, we *wire.Error) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(wire.HTTPStatus(we.Code))
	json.NewEncoder(w).Encode(we)
}

func badRequest(err error) *wire.Error {
	return &wire.Error{Code: wire.CodeBadRequest, Message: err.Error()}
}

// queryOpts translates wire options into the vaq option set, appended to
// dst[:0], always routing statistics into st (the response carries them
// back). A request that names no method runs vaq's default.
func queryOpts(dst []vaq.QueryOpt, opts wire.Options, st *vaq.Stats) ([]vaq.QueryOpt, error) {
	out := append(dst[:0], vaq.WithStatsInto(st))
	if opts.Method != "" {
		m, err := wire.ParseMethod(opts.Method)
		if err != nil {
			return nil, err
		}
		out = append(out, vaq.UsingMethod(m))
	}
	if opts.CountOnly {
		out = append(out, vaq.CountOnly())
	}
	return out, nil
}

// areaCall is one decoded area-query request: what query, queryAll and each
// hand the engine.
type areaCall struct {
	ctx     context.Context
	regions []vaq.Region   // one on the single-region routes
	opts    []vaq.QueryOpt // the wire options, with statistics routed into st
	// optBuf backs opts: room for the statistics, the method, CountOnly and
	// the Reuse /v1/query appends.
	optBuf [4]vaq.QueryOpt
	st     vaq.Stats
	buf    *[]byte // from wire.GetBuffer: the request body, then the response
}

// area is the preamble of the three area-query routes, written once: decode
// the request under its deadline (decodeArea), answer its error if that
// fails, and otherwise hand the call to serve under its deadline context,
// with the response's writes bounded by the same deadline plus writeGrace.
func (h *handler) area(single bool, serve func(http.ResponseWriter, *areaCall)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		buf := wire.GetBuffer()
		defer wire.PutBuffer(buf)
		c, cancel, werr := h.decodeArea(w, r, single, buf)
		if werr != nil {
			writeError(w, werr)
			return
		}
		defer cancel()
		if d, ok := c.ctx.Deadline(); ok {
			// A writer that cannot set a deadline (a recorder) has no peer
			// to stall it.
			_ = http.NewResponseController(w).SetWriteDeadline(d.Add(writeGrace))
		}
		serve(w, c)
	}
}

// decodeArea derives the deadline context, then decodes the request under
// it (decodeCall): the deadline bounds the body's read too, so a client that
// trickles its body holds the handler no longer than the budget it sent. A
// body cut off by the deadline is answered with the deadline code, as a query
// that ran over it is; any other decode failure is a bad request. On an error
// the context is already cancelled.
func (h *handler) decodeArea(w http.ResponseWriter, r *http.Request, single bool, buf *[]byte) (*areaCall, context.CancelFunc, *wire.Error) {
	ctx, cancel, err := h.requestContext(r)
	if err != nil {
		return nil, nil, badRequest(err)
	}
	// As for the write deadline in area: a reader without a connection (a
	// recorder) has no peer to stall it.
	rc := http.NewResponseController(w)
	d, bounded := ctx.Deadline()
	if bounded {
		_ = rc.SetReadDeadline(d)
	}
	c, err := h.decodeCall(w, r, single, buf)
	if bounded {
		// Disarm it before the query runs. Once the body is at EOF, net/http
		// reads the connection in the background; were that read to time
		// out, it would cancel the connection's context, failing this query
		// and every later one on the kept-alive connection as canceled.
		// Go 1.24's server happens to clear the deadline when it starts that
		// read; the handler does not rely on it.
		_ = rc.SetReadDeadline(time.Time{})
	}
	if err != nil {
		cancel()
		if bounded && !time.Now().Before(d) {
			return nil, nil, wire.EncodeError(fmt.Errorf("serve: reading the request body: %w", context.DeadlineExceeded))
		}
		return nil, nil, badRequest(err)
	}
	c.ctx = ctx
	return c, cancel, nil
}

// decodeCall reads the body into buf and decodes it — one wire.QueryRequest
// on the single-region routes, one per line, all with the first's options,
// on /v1/queryall — then its region(s), and translates the options.
func (h *handler) decodeCall(w http.ResponseWriter, r *http.Request, single bool, buf *[]byte) (*areaCall, error) {
	length := r.ContentLength
	if length > maxBodyBytes {
		length = -1 // read up to the cap, which refuses it
	}
	body, err := wire.ReadBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), length, *buf)
	*buf = body
	if err != nil {
		return nil, err
	}
	c := &areaCall{buf: buf}
	var opts wire.Options
	for rest := body; len(c.regions) == 0 || len(rest) > 0; {
		msg := rest // the whole body on the single-region routes
		rest = nil
		if !single {
			msg, rest, _ = bytes.Cut(msg, []byte{'\n'})
		}
		req, err := wire.DecodeQueryRequest(msg)
		if err == nil && len(c.regions) > 0 && req.Options != opts {
			err = errors.New("options differ from region 0's")
		}
		var region vaq.Region
		if err == nil {
			region, err = req.Region.Decode()
		}
		if err != nil {
			if !single {
				err = fmt.Errorf("region %d: %w", len(c.regions), err)
			}
			return nil, err
		}
		opts = req.Options
		c.regions = append(c.regions, region)
	}
	if c.opts, err = queryOpts(c.optBuf[:0], opts, &c.st); err != nil {
		return nil, err
	}
	return c, nil
}

// idBufs holds the id slices /v1/query's engine calls answer into.
var idBufs = sync.Pool{New: func() any { return new([]int64) }}

// query answers /v1/query: the engine writes the ids into a pooled slice
// (vaq.Reuse), respond appends them to the call's buffer as the body, and
// the slice, grown or not, goes back to its pool once the body is written.
func (h *handler) query(w http.ResponseWriter, c *areaCall) {
	bp := idBufs.Get().(*[]int64)
	defer idBufs.Put(bp)
	ids, err := h.eng.Query(c.ctx, c.regions[0], append(c.opts, vaq.Reuse(*bp))...)
	if cap(ids) > cap(*bp) {
		*bp = ids[:0]
	}
	if err != nil {
		writeError(w, wire.EncodeError(err))
		return
	}
	ws := wire.FromStats(c.st)
	c.respond(w, wire.QueryResponse{IDs: ids, Count: c.st.ResultSize, Stats: &ws}.AppendJSON((*c.buf)[:0]))
}

// respond writes a 200 whose body is value, JSON appended to the call's
// buffer, and the newline json.Encoder writes after a value: a single
// Write with a Content-Length, so the response is not chunked.
func (c *areaCall) respond(w http.ResponseWriter, value []byte) {
	*c.buf = append(value, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(*c.buf)))
	w.Write(*c.buf)
}

// queryAll answers /v1/queryall: a line per region without statistics
// (none under count_only), then the batch's total count and statistics.
func (h *handler) queryAll(w http.ResponseWriter, c *areaCall) {
	results, err := h.eng.QueryAll(c.ctx, c.regions, c.opts...)
	if err != nil {
		writeError(w, wire.EncodeError(err))
		return
	}
	b := (*c.buf)[:0]
	for _, ids := range results {
		b = append(wire.QueryResponse{IDs: ids, Count: len(ids)}.AppendJSON(b), '\n')
	}
	ws := wire.FromStats(c.st)
	c.respond(w, wire.QueryResponse{Count: c.st.ResultSize, Stats: &ws}.AppendJSON(b))
}

// each streams one area query as NDJSON frames, riding the engine's
// emit-callback path: every result is on the wire while the BFS is still
// expanding. The terminal frame carries the statistics (or the error);
// a stream without one was cut by a disconnect, or by a client that did not
// read it before its deadline plus writeGrace.
func (h *handler) each(w http.ResponseWriter, c *areaCall) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	frames := 0
	var writeErr error
	qerr := h.eng.Each(c.ctx, c.regions[0], func(id int64, p vaq.Point) bool {
		if writeErr = enc.Encode(wire.Frame{ID: id, X: p.X, Y: p.Y}); writeErr != nil {
			return false // client went away; stop the query cleanly
		}
		frames++
		if flusher != nil && frames%streamFlushEvery == 0 {
			flusher.Flush()
		}
		return true
	}, c.opts...)
	if writeErr != nil {
		return // connection dead; no terminal frame is deliverable
	}
	final := wire.Frame{EOF: true}
	if qerr != nil {
		final.Err = wire.EncodeError(qerr)
	} else {
		ws := wire.FromStats(c.st)
		final.Stats = &ws
	}
	enc.Encode(final)
	if flusher != nil {
		flusher.Flush()
	}
}

func (h *handler) info(w http.ResponseWriter, r *http.Request) {
	info := wire.Info{
		Len:      h.eng.Len(),
		IDOffset: h.cfg.IDOffset,
		Flavor:   h.cfg.Flavor,
	}
	// A universe with no area (the empty rectangle's is ±Inf, which JSON
	// cannot carry) goes out all zero, which a client refuses by name.
	if u := h.eng.Bounds(); u.MinX < u.MaxX && u.MinY < u.MaxY {
		info.Bounds = wire.FromRect(u)
	}
	if e, ok := h.eng.(dataBounded); ok {
		info.SetDataBounds(e.DataBounds())
	}
	writeJSON(w, info)
}
