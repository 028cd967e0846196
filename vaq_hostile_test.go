package vaq_test

// The remote client against hostile backends: a transport that cuts one
// backend's area-query response short, or stalls it, at a byte the fuzzer
// picks. Whatever the cut, Query, QueryAll and Each return the brute-force
// answer or an error — never a partial answer with a nil error.

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	vaq "repro"
)

// hostilePlan says which backend misbehaves and how.
type hostilePlan struct {
	host  string // the backend's host:port
	cut   int    // response body bytes delivered before the cut
	stall bool   // at the cut, block until the request's context ends instead of ending the body
}

// hostileTransport applies the current plan to every area-query response;
// /v1/info passes untouched.
type hostileTransport struct {
	base *http.Transport
	plan atomic.Pointer[hostilePlan]
}

func (h *hostileTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := h.base.RoundTrip(req)
	p := h.plan.Load()
	if err != nil || p == nil || req.URL.Host != p.host || req.URL.Path == "/v1/info" {
		return resp, err
	}
	resp.Body = &hostileBody{ReadCloser: resp.Body, left: p.cut, stall: p.stall, ctx: req.Context()}
	return resp, nil
}

// hostileBody delivers left bytes of the real body, then ends it cleanly
// (io.EOF) or stalls.
type hostileBody struct {
	io.ReadCloser
	left  int
	stall bool
	ctx   context.Context
}

func (b *hostileBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		if b.stall {
			<-b.ctx.Done()
			return 0, b.ctx.Err()
		}
		return 0, io.EOF
	}
	if len(p) > b.left {
		p = p[:b.left]
	}
	n, err := b.ReadCloser.Read(p)
	b.left -= n
	return n, err
}

// FuzzRemoteHostileBackend: seed draws a polygon and a circle, op picks
// Query, QueryAll or Each, backend the misbehaving one of two, and cut and
// stall what its responses do. A cut past the end of a body leaves it
// whole, so the healthy path is in the corpus too.
func FuzzRemoteHostileBackend(f *testing.F) {
	pts := vaq.UniformPoints(rand.New(rand.NewSource(83)), 600, vaq.UnitSquare())
	fx := startFixture(f, pts, 300)
	ht := &hostileTransport{base: &http.Transport{}}
	f.Cleanup(ht.base.CloseIdleConnections)
	re, err := vaq.DialRemote(context.Background(), fx.urls, vaq.WithRemoteClient(&http.Client{Transport: ht}))
	if err != nil {
		f.Fatal(err)
	}
	var hosts []string
	for _, u := range fx.urls {
		pu, err := url.Parse(u)
		if err != nil {
			f.Fatal(err)
		}
		hosts = append(hosts, pu.Host)
	}

	f.Add(int64(1), uint8(0), uint8(0), uint16(0), false)     // Query, empty body
	f.Add(int64(2), uint8(1), uint8(1), uint16(40), false)    // QueryAll, cut inside the ids
	f.Add(int64(3), uint8(2), uint8(0), uint16(200), false)   // Each, cut mid-stream
	f.Add(int64(4), uint8(2), uint8(1), uint16(120), true)    // Each, stalled mid-stream
	f.Add(int64(5), uint8(0), uint8(1), uint16(65535), false) // Query, whole body
	f.Fuzz(func(t *testing.T, seed int64, op, backend uint8, cut uint16, stall bool) {
		rng := rand.New(rand.NewSource(seed))
		regions := []vaq.Region{
			vaq.PolygonRegion(vaq.RandomQueryPolygon(rng, 10, 0.01+0.2*rng.Float64(), vaq.UnitSquare())),
			vaq.CircleRegion(vaq.NewCircle(vaq.Pt(0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64()), 0.02+0.15*rng.Float64())),
		}
		want := make([][]int64, len(regions))
		for i, region := range regions {
			ids, err := fx.local.Query(context.Background(), region, vaq.UsingMethod(vaq.BruteForce))
			if err != nil {
				t.Fatal(err)
			}
			want[i] = ids
		}

		ht.plan.Store(&hostilePlan{host: hosts[int(backend)%len(hosts)], cut: int(cut), stall: stall})
		defer ht.plan.Store(nil)
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		switch op % 3 {
		case 0:
			if ids, err := re.Query(ctx, regions[0]); err == nil && !slices.Equal(ids, want[0]) {
				t.Fatalf("Query: %d ids with a nil error, brute force has %d", len(ids), len(want[0]))
			}
		case 1:
			if out, err := re.QueryAll(ctx, regions); err == nil && !slices.EqualFunc(out, want, slices.Equal[[]int64]) {
				t.Fatalf("QueryAll: %d results with a nil error differ from brute force", len(out))
			}
		case 2:
			var got []int64
			err := re.Each(ctx, regions[0], func(id int64, _ vaq.Point) bool {
				got = append(got, id)
				return true
			})
			slices.Sort(got)
			if err == nil && !slices.Equal(got, want[0]) {
				t.Fatalf("Each: %d ids before a nil error, brute force has %d", len(got), len(want[0]))
			}
		}
	})
}
