package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// FuzzRegionRoundTrip feeds arbitrary JSON at the region decoder. The
// invariant: anything that decodes must (a) contain only finite geometry,
// (b) re-encode without error, and (c) survive a second decode with every
// coordinate's bits unchanged — the codec's fixpoint property.
func FuzzRegionRoundTrip(f *testing.F) {
	seeds := []string{
		`{"kind":"polygon","outer":[[0.1,0.1],[0.7,0.2],[0.3,0.9]]}`,
		`{"kind":"polygon","outer":[[0,0],[1,0],[1,1],[0,1]],"holes":[[[0.4,0.4],[0.6,0.4],[0.5,0.6]]]}`,
		`{"kind":"polygon","outer":[[0.1,0.1],[0.9,0.12],[0.9,0.13],[0.12,0.125]]}`,
		`{"kind":"circle","center":[0.25,0.75],"r":0.125}`,
		`{"kind":"circle","center":[0.3333333333333333,0.2857142857142857],"r":1e-9}`,
		`{"kind":"circle","center":[0.5,0.5],"r":-1}`,
		`{"kind":"circle","center":[1e999,0.5],"r":0.1}`,
		`{"kind":"polygon","outer":[[0,0],[1,1]]}`,
		`{"kind":"blob"}`,
		`{}`,
		`[]`,
		`{"kind":"polygon","outer":[[0,0],[1,1],[2,2]]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var wr Region
		if err := json.Unmarshal(data, &wr); err != nil {
			return
		}
		region, err := wr.Decode()
		if err != nil {
			return
		}
		// Decoded geometry must be finite everywhere the query layer
		// looks.
		b := region.Bounds()
		for _, v := range []float64{b.MinX, b.MinY, b.MaxX, b.MaxY} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("decoded region has non-finite bounds %v from %q", b, data)
			}
		}
		enc, err := EncodeRegion(region)
		if err != nil {
			t.Fatalf("decoded region failed to re-encode: %v (from %q)", err, data)
		}
		out, err := json.Marshal(enc)
		if err != nil {
			t.Fatalf("re-encoded region failed to marshal: %v (from %q)", err, data)
		}
		var wr2 Region
		if err := json.Unmarshal(out, &wr2); err != nil {
			t.Fatalf("re-encoded JSON failed to parse: %v (%s)", err, out)
		}
		region2, err := wr2.Decode()
		if err != nil {
			t.Fatalf("re-encoded region failed to decode: %v (%s)", err, out)
		}
		if !sameGeometry(region, region2) {
			t.Fatalf("round trip changed the geometry:\n in  %q\n out %s", data, out)
		}
	})
}

// FuzzFrameRoundTrip feeds arbitrary bytes at the NDJSON frame decoder;
// decodable frames must re-encode to a frame with identical fields.
func FuzzFrameRoundTrip(f *testing.F) {
	seeds := []string{
		`{"id":17,"x":0.25,"y":0.75}`,
		`{"id":0,"x":0,"y":0}`,
		`{"eof":true,"stats":{"method":"voronoi","result_size":3,"candidates":5}}`,
		`{"eof":true,"error":{"code":"canceled","message":"context canceled"}}`,
		`{"id":-1,"x":-0.5,"y":1e-300}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		if err := json.Unmarshal(data, &fr); err != nil {
			return
		}
		if math.IsNaN(fr.X) || math.IsNaN(fr.Y) {
			// NaN never survives a JSON parse; reaching here means the
			// decoder invented one.
			t.Fatalf("frame decoded NaN coordinates from %q", data)
		}
		out, err := json.Marshal(fr)
		if err != nil {
			// Frames built from decoded JSON always hold finite floats,
			// so re-marshal must succeed.
			t.Fatalf("decoded frame failed to re-marshal: %v (from %q)", err, data)
		}
		var fr2 Frame
		if err := json.Unmarshal(out, &fr2); err != nil {
			t.Fatalf("re-encoded frame failed to parse: %v (%s)", err, out)
		}
		if fr.ID != fr2.ID || fr.X != fr2.X || fr.Y != fr2.Y || fr.EOF != fr2.EOF {
			t.Fatalf("frame fields changed: %+v -> %+v", fr, fr2)
		}
	})
}

// unaryKinds are the two messages of /v1/query, indexed by the fuzz
// targets' first argument (mod 2).
var unaryKinds = [2]string{"QueryRequest", "QueryResponse"}

// referenceDecode decodes data as message kind the way the reflective
// codec does: a request as the server read it (one value, no unknown
// member, nothing but whitespace after it), a response as the client read
// it (json.Decoder's first value).
func referenceDecode(kind int, data []byte) (any, error) {
	strict := func(dst any) error {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(dst); err != nil {
			return err
		}
		if _, err := dec.Token(); err != io.EOF {
			return errors.New("trailing data")
		}
		return nil
	}
	first := func(dst any) error { return json.NewDecoder(bytes.NewReader(data)).Decode(dst) }
	if kind == 0 {
		var m QueryRequest
		return m, strict(&m)
	}
	var m QueryResponse
	return m, first(&m)
}

// handDecode is the hand-written decoder for message kind; a QueryResponse
// decodes into dst's storage.
func handDecode(kind int, data []byte, dst []int64) (any, error) {
	if kind == 0 {
		return DecodeQueryRequest(data)
	}
	return DecodeQueryResponse(data, dst)
}

// marshalBits is json.Marshal of a decoded message: equal values with
// different float bits (-0 and +0) marshal apart.
func marshalBits(t *testing.T, m any) []byte {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("a decoded %T does not marshal: %v", m, err)
	}
	return b
}

// checkUnaryDecode is the differential property of the unary decoders: on
// any bytes, the hand decoder and encoding/json agree on error-or-not and
// on the value, nil-or-empty and float bits included — with and without an
// id buffer to decode into.
func checkUnaryDecode(t *testing.T, kind int, data []byte) {
	t.Helper()
	want, wantErr := referenceDecode(kind, data)
	for _, dst := range [][]int64{nil, make([]int64, 3, 5)} {
		got, gotErr := handDecode(kind, data, dst)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s %q: hand decoder err=%v, encoding/json err=%v", unaryKinds[kind], data, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) || !bytes.Equal(marshalBits(t, got), marshalBits(t, want)) {
			t.Fatalf("%s %q:\n hand decoder  %#v\n encoding/json %#v", unaryKinds[kind], data, got, want)
		}
	}
}

func FuzzUnaryDecodeMatchesEncodingJSON(f *testing.F) {
	for _, s := range []struct {
		kind byte
		data string
	}{
		{0, `{"region":{"kind":"polygon","outer":[[0.1,0.1],[0.7,0.2],[0.3,0.9]]},"options":{}}`},
		{0, `{"region":{"kind":"polygon","outer":[[0,0],[1,0],[1,1],[0,1]],"holes":[[[0.4,0.4],[0.6,0.4],[0.5,0.6]],null,[]]},"options":{"method":"voronoi-bfs-strict","count_only":true}}`},
		{0, `{"region":{"kind":"polygon","outer":[[0,0],[1,0],[0,1]],"holes":[]},"options":{}}`},
		{0, `{"region":{"kind":"circle","center":[0.25,0.75],"r":0.125},"options":{"count_only":true}}`},
		{0, `{"region":{"kind":"circle","center":[-0,5e-324],"r":-0},"options":{"method":"x"}}` + "\n"},
		{0, `{"region":{"kind":"circle","outer":[],"center":[1,2]},"options":{}} `},
		{0, `{"region": {"kind":"circle"}, "options":{}}`},
		{0, `{"region":{"kind":"circle"},"options":{},"extra":1}`},
		{0, `{"region":{"kind":"circle","r":1e999},"options":{}}`},
		{0, `{"region":{"kind":"c\u0069rcle"},"options":{"count_only":false}}`},
		{0, `{"Region":{"kind":"circle"},"options":{}}`},
		{0, `{"region":{"kind":"circle"},"options":{}}x`},
		{1, `{"ids":[1,-2,999999999999999999,-999999999999999999],"count":4,"stats":{"result_size":4,"candidates":5}}` + "\n"},
		{1, `{"ids":[1000000000000000000,-9223372036854775808],"count":2}`},
		{1, `{"ids":[9223372036854775808],"count":1}`},
		{1, `{"count":0,"stats":{}}` + "\n"},
		{1, `{"count":0,"stats":{"result_size":0}}`},
		{1, `{"ids":[],"count":0}`},
		{1, `{"ids":null,"count":0,"stats":null}`},
		{1, `{"ids":[1, 2],"count":2}`},
		{1, `{"ids":[1],"count":1.0}`},
		{1, `{"count":1}{"count":2}`},
		{1, `{"count":1,"stats":{"candidates":5,"result_size":4}}`},
		{1, `{"count":-0,"stats":{"records_loaded":-7}}`},
		{1, `{"ids":[01],"count":1}`},
		{1, ` {"ids":[1],"count":1}`},
	} {
		f.Add(s.kind, []byte(s.data))
	}
	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		checkUnaryDecode(t, int(kind%2), data)
	})
}

// fuzzSource reads fuzzer bytes as the parts of a message; past the end
// every read is zero.
type fuzzSource []byte

func (s *fuzzSource) byte() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

func (s *fuzzSource) uint64() uint64 {
	var v uint64
	for range 8 {
		v = v<<8 | uint64(s.byte())
	}
	return v
}

// int64 draws small values, the 18- and 19-digit boundaries and raw bit
// patterns, each of either sign.
func (s *fuzzSource) int64() int64 {
	var v int64
	switch s.byte() % 5 {
	case 0:
		v = int64(s.byte())
	case 1:
		v = 999999999999999999 - int64(s.byte()%2) // the last 18-digit ids
	case 2:
		v = 1000000000000000000 + int64(s.byte()) // 19 digits
	case 3:
		return math.MinInt64 + int64(s.byte())
	default:
		return int64(s.uint64())
	}
	if s.byte()%2 == 1 {
		v = -v
	}
	return v
}

// float draws zeros of both signs, short decimals, and raw bit patterns
// (NaN and ±Inf among them).
func (s *fuzzSource) float() float64 {
	switch s.byte() % 4 {
	case 0:
		return math.Copysign(0, float64(int(s.byte()%2)*2-1))
	case 1:
		return float64(s.byte()) / 16
	default:
		return math.Float64frombits(s.uint64())
	}
}

var fuzzStrings = []string{KindPolygon, KindCircle, "", "voronoi-bfs-strict", "a<b&c>", `q"\`, "tab\t", "é", "\xff", "\u2028"}

func (s *fuzzSource) string() string { return fuzzStrings[int(s.byte())%len(fuzzStrings)] }

// shape draws nil, empty or n elements, n < 4.
func (s *fuzzSource) shape() int { return int(s.byte()%6) - 2 }

func (s *fuzzSource) ids() []int64 {
	n := s.shape()
	if n < 0 {
		return [][]int64{nil, {}}[n+2]
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = s.int64()
	}
	return out
}

func (s *fuzzSource) coords() []Coord {
	n := s.shape()
	if n < 0 {
		return [][]Coord{nil, {}}[n+2]
	}
	out := make([]Coord, n)
	for i := range out {
		out[i] = Coord{X: s.float(), Y: s.float()}
	}
	return out
}

func (s *fuzzSource) region() Region {
	r := Region{Kind: s.string(), Outer: s.coords()}
	if n := s.shape(); n >= 0 {
		r.Holes = make([][]Coord, n)
		for i := range r.Holes {
			r.Holes[i] = s.coords()
		}
	}
	if s.byte()%2 == 1 {
		r.Center = &Coord{X: s.float(), Y: s.float()}
	}
	r.R = s.float()
	return r
}

func (s *fuzzSource) options() Options {
	o := Options{CountOnly: s.byte()%2 == 1}
	if s.byte()%2 == 1 {
		o.Method = s.string()
	}
	return o
}

func (s *fuzzSource) stats() *Stats {
	if s.byte()%3 == 0 {
		return nil
	}
	st := new(Stats)
	for _, f := range statsFields {
		if s.byte()%2 == 1 {
			*f.at(st) = int(s.int64())
		}
	}
	return st
}

// message builds message kind from the fuzzer's bytes.
func (s *fuzzSource) message(kind int) any {
	if kind == 0 {
		return QueryRequest{Region: s.region(), Options: s.options()}
	}
	return QueryResponse{IDs: s.ids(), Count: int(s.int64()), Stats: s.stats()}
}

// handAppend is message m's AppendJSON.
func handAppend(m any) ([]byte, error) {
	if req, ok := m.(QueryRequest); ok {
		return req.AppendJSON(nil)
	}
	return m.(QueryResponse).AppendJSON(nil), nil
}

// FuzzUnaryEncodeMatchesEncodingJSON builds a message of each kind from the
// fuzzer's bytes — ids at the 18/19-digit boundary and of either sign, zero
// and absent statistics, nil and empty lists, holes, NaN and ±Inf, strings
// encoding/json escapes — and holds AppendJSON to json.Encoder's bytes
// (less its newline), or to its refusal. What it wrote then decodes as
// encoding/json decodes it.
func FuzzUnaryEncodeMatchesEncodingJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x03\x01\x10\x01\x20\x01\x30\x00\x01\x02\x11\x04\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for kind := range unaryKinds {
			src := fuzzSource(data)
			m := src.message(kind)
			got, gotErr := handAppend(m)
			var want bytes.Buffer
			wantErr := json.NewEncoder(&want).Encode(m)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%#v: AppendJSON err=%v, json.Encoder err=%v", m, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if w := bytes.TrimSuffix(want.Bytes(), []byte("\n")); !bytes.Equal(got, w) {
				t.Fatalf("%#v:\n AppendJSON   %s\n json.Encoder %s", m, got, w)
			}
			checkUnaryDecode(t, kind, want.Bytes())
		}
	})
}
