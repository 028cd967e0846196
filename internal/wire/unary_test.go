package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
)

// unaryExamples are messages of both kinds as the two ends exchange them:
// plain strings, ids of at most 18 digits.
func unaryExamples() []any {
	sq := []Coord{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
	hole := []Coord{{0.25, 0.25}, {0.5, 0.25}, {0.375, 1.0 / 3}}
	center := Coord{X: 0.5, Y: math.Copysign(0, -1)}
	polygon := Region{Kind: KindPolygon, Outer: sq, Holes: [][]Coord{hole}}
	circle := Region{Kind: KindCircle, Center: &center, R: 1e-7}
	ids := []int64{0, 7, -3, 999999999999999999, -999999999999999999}
	return []any{
		QueryRequest{Region: polygon},
		QueryRequest{Region: circle, Options: Options{Method: "voronoi-bfs-strict", CountOnly: true}},
		QueryRequest{Region: Region{Kind: KindCircle, Center: &center}, Options: Options{CountOnly: true}},
		QueryResponse{IDs: ids, Count: len(ids), Stats: &Stats{ResultSize: 5, Candidates: 6, RecordsLoaded: -1}},
		QueryResponse{Count: 12, Stats: &Stats{}},
		QueryResponse{},
		QueryResponse{IDs: []int64{}, Stats: &Stats{CellTests: 3}},
	}
}

// kindOf is m's index in unaryKinds.
func kindOf(m any) int {
	if _, ok := m.(QueryRequest); ok {
		return 0
	}
	return 1
}

// TestUnaryCanonicalFormIsTheFastPath: what the appenders write for the
// messages the two ends exchange is read by the one-pass parser, not
// handed to encoding/json, with the response's newline and without; and it
// reads back as encoding/json reads it.
func TestUnaryCanonicalFormIsTheFastPath(t *testing.T) {
	for _, m := range unaryExamples() {
		body, err := handAppend(m)
		if err != nil {
			t.Fatalf("%#v: %v", m, err)
		}
		kind := kindOf(m)
		for _, data := range [][]byte{body, append(bytes.Clone(body), '\n')} {
			var ok bool
			if c := canonicalOf(data); kind == 0 {
				ok = c.queryRequest(new(QueryRequest))
			} else {
				ok = c.queryResponse(new(QueryResponse), nil)
			}
			if !ok {
				t.Errorf("%q is not read in one pass", data)
			}
			checkUnaryDecode(t, kind, data)
		}
	}
}

// TestUnaryEncodeMatchesEncoder: AppendJSON writes json.Marshal's bytes,
// and a response plus its newline json.Encoder's.
func TestUnaryEncodeMatchesEncoder(t *testing.T) {
	for _, m := range unaryExamples() {
		got, err := handAppend(m)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got, '\n'), want.Bytes()) {
			t.Errorf("AppendJSON wrote\n %s\njson.Encoder\n %s", got, want.Bytes())
		}
	}
	// Refused where json.Marshal refuses: a non-finite coordinate or radius.
	for _, r := range []Region{
		{Kind: KindPolygon, Outer: []Coord{{math.NaN(), 0}}},
		{Kind: KindCircle, Center: &Coord{X: math.Inf(1)}},
		{Kind: KindCircle, R: math.Inf(-1)},
	} {
		if _, err := (QueryRequest{Region: r}).AppendJSON(nil); err == nil {
			t.Errorf("%+v: appended without error", r)
		}
	}
}

// TestQueryResponseDecodesIntoDest: a buffer passed to DecodeQueryResponse
// holds the ids when it is large enough.
func TestQueryResponseDecodesIntoDest(t *testing.T) {
	dst := make([]int64, 0, 8)
	resp, err := DecodeQueryResponse([]byte(`{"ids":[4,5,6],"count":3}`+"\n"), dst)
	if err != nil || len(resp.IDs) != 3 || &resp.IDs[0] != &dst[:1][0] {
		t.Fatalf("decoded %v (err %v), not into the buffer", resp.IDs, err)
	}
	if resp, _ := DecodeQueryResponse([]byte(`{"count":0}`), dst); resp.IDs != nil {
		t.Errorf("a body without ids decoded to %#v, want nil", resp.IDs)
	}
}

// TestQueryResponseAppendAllocs: appending a 1000-id response into a
// reused buffer allocates nothing.
func TestQueryResponseAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	ids := make([]int64, 1000)
	for i := range ids {
		ids[i] = int64(i * 197)
	}
	resp := QueryResponse{IDs: ids, Count: len(ids), Stats: &Stats{ResultSize: len(ids), Candidates: 1177}}
	buf := resp.AppendJSON(nil)
	allocs := testing.AllocsPerRun(20, func() { buf = resp.AppendJSON(buf[:0]) })
	if allocs != 0 {
		t.Errorf("appending a 1000-id QueryResponse into a reused buffer allocates %.0f times, want 0", allocs)
	}
}

// TestMethodNameAllocs: a decoded request that names a defined method costs
// what one that names none does — it gets the method's name without a copy
// of the body's bytes — and one that names anything else gets its own copy,
// which the pooled body can be reused under.
func TestMethodNameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const region = `{"region":{"kind":"circle","center":[0.5,0.5],"r":0.1},"options":{`
	decodeAllocs := func(body []byte) (QueryRequest, float64) {
		var req QueryRequest
		var err error
		allocs := testing.AllocsPerRun(20, func() { req, err = DecodeQueryRequest(body) })
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return req, allocs
	}
	_, unnamed := decodeAllocs([]byte(region + `}}`))
	for m := core.Traditional; m <= core.BruteForce; m++ {
		req, allocs := decodeAllocs([]byte(region + `"method":"` + m.String() + `"}}`))
		if req.Options.Method != m.String() || allocs != unnamed {
			t.Errorf("%v: method %q in %.0f allocs, want the name in %.0f, as with no method", m, req.Options.Method, allocs, unnamed)
		}
	}
	body := []byte(region + `"method":"voronoi-lax"}}`)
	req, err := DecodeQueryRequest(body)
	clear(body)
	if err != nil || req.Options.Method != "voronoi-lax" {
		t.Errorf("an unknown method decoded to %q (err %v), want its own copy of voronoi-lax", req.Options.Method, err)
	}
}

// BenchmarkUnaryCodec times one round of the codec on the remote tier's
// typical messages — a 10-vertex polygon request and a 1000-id response —
// by hand and through encoding/json, each encoded into a reused buffer and
// decoded back.
func BenchmarkUnaryCodec(b *testing.B) {
	outer := make([]Coord, 10)
	for i := range outer {
		a := 2 * math.Pi * float64(i) / 10
		outer[i] = Coord{X: 0.5 + 0.1*math.Cos(a), Y: 0.5 + 0.1*math.Sin(a)}
	}
	req := QueryRequest{Region: Region{Kind: KindPolygon, Outer: outer}, Options: Options{Method: "voronoi-bfs-strict"}}
	ids := make([]int64, 1000)
	for i := range ids {
		ids[i] = int64(i*197 + 50000)
	}
	resp := QueryResponse{IDs: ids, Count: len(ids), Stats: &Stats{ResultSize: len(ids), Candidates: 1012}}
	b.Run("hand", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = req.AppendJSON(buf[:0])
			if _, err := DecodeQueryRequest(buf); err != nil {
				b.Fatal(err)
			}
			buf = resp.AppendJSON(buf[:0])
			if _, err := DecodeQueryResponse(buf, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			json.NewEncoder(&buf).Encode(req)
			var r QueryRequest
			if err := json.NewDecoder(&buf).Decode(&r); err != nil {
				b.Fatal(err)
			}
			buf.Reset()
			json.NewEncoder(&buf).Encode(resp)
			var q QueryResponse
			if err := json.NewDecoder(&buf).Decode(&q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
