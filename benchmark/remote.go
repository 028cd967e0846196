package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	vaq "repro"
	"repro/internal/serve"
)

// spanHeader carries "<op>.<round-trip span id>" from the client's
// RoundTripper to the server's middleware so handler spans nest under the
// round trip that caused them.
const spanHeader = "Bench-Span"

// tap is the tracing switch shared by the client transport and the server
// middleware. While rec is nil — every timed round — both pass requests
// straight through without touching the clock.
type tap struct {
	rec      atomic.Pointer[recorder]
	op       atomic.Int64 // the client's current operation, its root span and region
	root     atomic.Int64
	region   atomic.Int64
	failures atomic.Int64 // round trips that errored or returned 5xx: what a retry follows
}

func (t *tap) begin(op, root, region int) {
	t.op.Store(int64(op))
	t.root.Store(int64(root))
	t.region.Store(int64(region))
}

type tracedTransport struct {
	base http.RoundTripper
	tap  *tap
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := t.tap.rec.Load()
	if rec == nil {
		return t.base.RoundTrip(req)
	}
	op := int(t.tap.op.Load())
	id := rec.start(op, int(t.tap.root.Load()), "remote.roundtrip", int(t.tap.region.Load()))
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(op)+"."+strconv.Itoa(id))
	resp, err := t.base.RoundTrip(req)
	if err != nil || resp.StatusCode >= 500 {
		t.tap.failures.Add(1)
	}
	if err != nil {
		rec.finish(id, nil)
		return nil, err
	}
	// The round trip ends when the caller has read the body, not when the
	// headers arrive.
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { rec.finish(id, nil) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

func (t *tap) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := t.rec.Load()
		if rec == nil {
			next.ServeHTTP(w, r)
			return
		}
		op, parent := 0, 0
		if a, b, ok := strings.Cut(r.Header.Get(spanHeader), "."); ok {
			op, _ = strconv.Atoi(a)
			parent, _ = strconv.Atoi(b)
		}
		id := rec.start(op, parent, "serve.handler", int(t.region.Load()))
		next.ServeHTTP(w, r)
		rec.finish(id, nil)
	})
}

// backend is one half of D behind an HTTP listener.
type backend struct {
	eng     *vaq.Engine
	handler http.Handler // serve's handler without the middleware
	offset  int64
	srv     *http.Server
	served  chan error
}

// remoteRig is the remote-fanout system: two in-process backends on
// loopback listeners, each over a contiguous half of D, and a RemoteEngine
// dialled through a benchmark-owned client.
type remoteRig struct {
	eng      *vaq.RemoteEngine
	backends []*backend
	client   *http.Client
	tap      *tap
}

func newRemoteRig(in *inputs) (*remoteRig, error) {
	rig := &remoteRig{tap: &tap{}}
	rig.client = &http.Client{Transport: &tracedTransport{
		base: &http.Transport{MaxIdleConnsPerHost: systemWorkers, DisableCompression: true},
		tap:  rig.tap,
	}}
	half := len(in.data) / 2
	var urls []string
	for _, part := range [][2]int{{0, half}, {half, len(in.data)}} {
		// Each engine is built on the universe, as areaserve builds it:
		// cells are clipped to it, and a region reaching in from the
		// other half stays connected only through those cells. /v1/info
		// advertises the same rectangle, so the fan-out prunes nothing.
		b := &backend{offset: int64(part[0]), served: make(chan error, 1)}
		eng, err := vaq.NewEngine(in.data[part[0]:part[1]], in.bounds)
		if err != nil {
			rig.close()
			return nil, err
		}
		b.eng = eng
		b.handler = serve.NewHandler(eng, serve.Config{IDOffset: b.offset, Flavor: "static"})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rig.close()
			return nil, err
		}
		b.srv = &http.Server{Handler: rig.tap.middleware(b.handler)}
		go func() { b.served <- b.srv.Serve(ln) }()
		rig.backends = append(rig.backends, b)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	eng, err := vaq.DialRemote(context.Background(), urls, vaq.WithRemoteClient(rig.client))
	if err != nil {
		rig.close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	rig.eng = eng
	return rig, nil
}

// close shuts both servers down and waits for their accept loops to end.
func (rig *remoteRig) close() {
	for _, b := range rig.backends {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = b.srv.Shutdown(ctx) // on timeout Close below still ends the loop
		cancel()
		b.srv.Close()
		if err := <-b.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(logOut, "benchmark: backend serve:", err)
		}
	}
	rig.client.CloseIdleConnections()
}
