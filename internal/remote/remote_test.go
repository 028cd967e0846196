package remote

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
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

	e := &Engine{client: srv.Client()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	yields := 0
	st, err := e.streamOne(ctx, Backend{URL: srv.URL}, wire.QueryRequest{},
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
