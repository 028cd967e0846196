package remote

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/wire"
)

// TestStreamOneStopsOnCanceledContext pins the stream loop's cancelStride
// check: once the caller's context is canceled, streamOne must stop
// within one stride even when the scanner still holds buffered frames.
// Before the check existed the loop drained everything the transport had
// buffered — the whole response here, since the server writes it in one
// burst — and the cancellation only surfaced at the end.
func TestStreamOneStopsOnCanceledContext(t *testing.T) {
	const frames = 10 * cancelStride
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// One burst, no EOF frame: everything lands in the client's buffer
		// before the first yield runs.
		for i := 0; i < frames; i++ {
			fmt.Fprintf(w, "{\"id\":%d,\"x\":1,\"y\":2}\n", i)
		}
	}))
	defer srv.Close()

	p := &backendPartition{client: srv.Client(), b: backend{URL: srv.URL}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	yields := 0
	st, err := p.streamOne(ctx, wire.QueryRequest{},
		func(id int64, pos geom.Point) bool {
			yields++
			if yields == 1 {
				cancel()
			}
			return true
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("streamOne error = %v, want context.Canceled", err)
	}
	if yields > cancelStride {
		t.Errorf("yielded %d frames after cancellation, want at most one stride (%d)", yields, cancelStride)
	}
	if st.ResultSize != yields {
		t.Errorf("ResultSize = %d, want %d (one per yield)", st.ResultSize, yields)
	}
}

// TestDiscoverRefusesWhatIsNotAnInfo: /v1/info answering anything but 200,
// or advertising a shape no backend can have — no universe, a data_bounds
// outside it, a negative id range, ids another backend holds — fails the
// dial and names the URL (both URLs, for an overlap). Before the status was
// looked at, a JSON error body decoded into a zero wire.Info and became a
// silent backend of length 0 at offset 0; before bounds was checked, an
// all-zero one made the engine's universe unknown; before the id ranges
// were, two backends over the same ids answered each of them twice.
func TestDiscoverRefusesWhatIsNotAnInfo(t *testing.T) {
	const ok = `{"len":5,"bounds":[0,0,1,1],"id_offset":40}`
	for _, tc := range []struct {
		name, body string
		status     int
		next       string // a second backend's /v1/info, dialled after the first; "" for none
		want       string // a fragment of the error; "" for success
	}{
		{"error body", `{"code":"internal","message":"engine not ready"}`, http.StatusInternalServerError, "", "engine not ready"},
		{"error body on 404", `{"code":"bad_request","message":"no such route"}`, http.StatusNotFound, "", "no such route"},
		{"bare 503", `busy`, http.StatusServiceUnavailable, "", "http 503"},
		{"not JSON", `<html>`, http.StatusOK, "", "decoding"},
		{"data outside the universe", `{"len":5,"bounds":[0,0,1,1],"data_bounds":[0.5,0.5,1.5,0.9],"id_offset":0}`, http.StatusOK, "", "data_bounds"},
		{"inverted data rectangle", `{"len":5,"bounds":[0,0,1,1],"data_bounds":[0.9,0.1,0.2,0.8],"id_offset":0}`, http.StatusOK, "", "data_bounds"},
		{"non-finite data rectangle", `{"len":5,"bounds":[0,0,1,1],"data_bounds":[0,0,1e999,1],"id_offset":0}`, http.StatusOK, "", "decoding"},
		{"no bounds", `{"len":5,"id_offset":40}`, http.StatusOK, "", "bounds"},
		{"all-zero bounds", `{"len":5,"bounds":[0,0,0,0],"data_bounds":[0,0,0,0],"id_offset":40}`, http.StatusOK, "", "bounds"},
		{"inverted bounds", `{"len":5,"bounds":[1,0,0,1],"id_offset":40}`, http.StatusOK, "", "bounds"},
		{"negative offset", `{"len":5,"bounds":[0,0,1,1],"id_offset":-3}`, http.StatusOK, "", "id_offset"},
		{"negative len", `{"len":-5,"bounds":[0,0,1,1],"id_offset":40}`, http.StatusOK, "", "id_offset"},
		{"id range past int64", `{"len":5,"bounds":[0,0,1,1],"id_offset":9223372036854775806}`, http.StatusOK, "", "id_offset"},
		{"overlapping ranges", ok, http.StatusOK, `{"len":5,"bounds":[0,0,1,1],"id_offset":44}`, "overlap"},
		{"the same range", ok, http.StatusOK, ok, "overlap"},
		{"adjacent ranges", ok, http.StatusOK, `{"len":5,"bounds":[0,0,1,1],"id_offset":45}`, ""},
		{"data inside the universe", `{"len":5,"bounds":[0,0,1,1],"data_bounds":[0.1,0.2,0.6,0.7],"id_offset":40}`, http.StatusOK, "", ""},
		{"no data_bounds", ok, http.StatusOK, "", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			urls := []string{infoServer(t, tc.status, tc.body)}
			if tc.next != "" {
				urls = append(urls, infoServer(t, http.StatusOK, tc.next))
			}
			backends, err := discover(context.Background(), urls, &http.Client{})
			if tc.want != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v, want one saying %q; backends %+v", err, tc.want, backends)
				}
				for _, u := range urls {
					if !strings.Contains(err.Error(), u) {
						t.Errorf("err = %v, want one naming %s", err, u)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			b, unit := backends[0], geom.NewRect(0, 0, 1, 1)
			wantKey := unit // without data_bounds the universe is the pruning key
			if strings.Contains(tc.body, "data_bounds") {
				wantKey = geom.NewRect(0.1, 0.2, 0.6, 0.7)
			}
			if b.Bounds != wantKey || b.Universe != unit || b.IDOffset != 40 || b.Len != 5 {
				t.Errorf("backend %+v, want pruning key %v inside universe %v", b, wantKey, unit)
			}
		})
	}
}

// infoServer answers every request with status and body.
func infoServer(t *testing.T, status int, body string) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		fmt.Fprint(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestReadBatchRefusesWhatIsNotAWholeBatch: a /v1/queryall body is read as
// region lines then one statistics line without ids. A body cut at a line
// boundary (no statistics line), statistics on a line with ids or before the
// last, a blank line, or a line with a second message after its own is an
// error, never an answer.
func TestReadBatchRefusesWhatIsNotAWholeBatch(t *testing.T) {
	const last = `{"count":2,"stats":{"result_size":2,"candidates":3}}`
	for _, tc := range []struct {
		name, body string
		want       string // a fragment of the error; "" for success
	}{
		{"whole", `{"ids":[1,2],"count":2}` + "\n" + `{"count":0}` + "\n" + last + "\n", ""},
		{"count only", last + "\n", ""},
		{"no final newline", `{"ids":[1,2],"count":2}` + "\n" + last, ""},
		{"empty", "", "cut short"},
		{"cut at a line", `{"ids":[1,2],"count":2}` + "\n" + `{"count":0}` + "\n", "cut short"},
		{"ids on the last line", `{"ids":[1,2],"count":2,"stats":{"result_size":2}}` + "\n", "statistics"},
		{"empty ids on the last line", `{"ids":[],"count":0,"stats":{}}` + "\n", "statistics"},
		{"statistics before the last", last + "\n" + `{"ids":[1,2],"count":2}` + "\n" + last + "\n", "statistics"},
		{"blank line", `{"ids":[1,2],"count":2}` + "\n\n" + last + "\n", "EOF"},
		{"two messages on a line", `{"ids":[1,2],"count":2}{"count":0}` + "\n" + last + "\n", "trailing data"},
		{"two messages on the last line", `{"ids":[1,2],"count":2}` + "\n" + last + `{"count":0}` + "\n", "trailing data"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &backendPartition{b: backend{IDOffset: 100}}
			out, st, err := p.readBatch([]byte(tc.body))
			if tc.want != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v, want one saying %q; read %v, %+v", err, tc.want, out, st)
				}
				return
			}
			if err != nil || st.ResultSize != 2 || st.Candidates != 3 {
				t.Fatalf("read %v, %+v, err %v", out, st, err)
			}
			if strings.HasPrefix(tc.body, `{"ids"`) && (len(out) < 1 || out[0][0] != 101 || out[0][1] != 102) {
				t.Errorf("read %v, want the first region's ids 101, 102", out)
			}
		})
	}
}
