package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// checkIDsAgainstEncodingJSON is the differential property of the id
// decoder: on any bytes it accepts, appendIDs and json.Unmarshal into a
// plain []int64 agree on nil-or-not and on every value, whether appendIDs
// starts from no buffer or from one holding ids; and whatever encoding/json
// writes for the ids it read, appendIDs accepts.
func checkIDsAgainstEncodingJSON(t *testing.T, data []byte) {
	t.Helper()
	var want []int64
	wantErr := json.Unmarshal(data, &want)
	for _, dst := range [][]int64{nil, {7, 8, 9}} {
		got, ok := appendIDs(dst, data)
		if !ok {
			continue
		}
		if wantErr != nil {
			t.Fatalf("%q: appendIDs accepts %v, encoding/json refuses: %v", data, got, wantErr)
		}
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("%q: appendIDs %v (nil %t), encoding/json %v (nil %t)", data, got, got == nil, want, want == nil)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q: id %d is %d, encoding/json reads %d", data, i, got[i], want[i])
			}
		}
	}
	if wantErr != nil || want == nil {
		return
	}
	canon, _ := json.Marshal(want)
	if _, ok := appendIDs(nil, canon); !ok && fastIDs(want) {
		t.Fatalf("%q: appendIDs refuses %s, the form encoding/json writes", data, canon)
	}
}

// fastIDs reports whether every id has at most maxFastDigits digits, the
// ids appendIDs takes.
func fastIDs(ids []int64) bool {
	for _, id := range ids {
		if id > 999999999999999999 || id < -999999999999999999 {
			return false
		}
	}
	return true
}

func FuzzIDsDecodeMatchesEncodingJSON(f *testing.F) {
	for _, s := range []string{
		`[]`, `[0]`, `[1,2,3]`, `[-1,0,1]`, `[-0]`, `[17,4096,123456789012345678]`,
		`[999999999999999999]`, `[-999999999999999999]`, // 18 digits: the fast path's last
		`[1000000000000000000]`, // 19 digits, fits
		`[9223372036854775807]`, `[-9223372036854775808]`,
		`[9223372036854775808]`, `[-9223372036854775809]`, `[99999999999999999999]`, // overflow
		`[01]`, `[-01]`, `[00]`, `[1,]`, `[,1]`, `[1,,2]`, `[-]`, `[--1]`, `[+1]`,
		` [1,2]`, `[1,2] `, `[1, 2]`, `[ 1,2]`, "[1,\n2]", `[ ]`,
		`null`, `[null]`, `[1,null,3]`, `[1.0]`, `[1e2]`, `[1.5]`, `["1"]`, `[true]`,
		`[[1]]`, `[1,[2]]`, `[{}]`, `{}`, `1`, `"x"`, ``, `[`, `]`, `[1`, `1]`, `[1]2]`, `[1][2]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkIDsAgainstEncodingJSON)
}

func FuzzCoordMatchesEncodingJSON(f *testing.F) {
	bits := math.Float64bits
	for _, s := range []struct {
		x, y float64
		data string
	}{
		{0.25, 0.75, `[0.25,0.75]`},
		{1e-7, 1e21, `[1e-7,1e+21]`},       // both exponent forms
		{1e-6, 1e20, `[0.000001,1e20]`},    // the last plain forms
		{-1e-7, -1e21, `[-1E-7,-1.0E+21]`}, // capital E
		{math.Copysign(0, -1), 0, `[-0,0]`},
		{math.SmallestNonzeroFloat64, math.MaxFloat64, `[5e-324,1.7976931348623157e308]`},
		{0.3333333333333333, 0.1 + 0.2, `[0.3333333333333333,0.30000000000000004]`},
		{math.Inf(1), 0, `[1e999,0]`}, // refused on both sides
		{math.NaN(), math.Inf(-1), `[NaN,0]`},
		{1, 2, `[1,2,3]`}, {1, 2, `[1]`}, {1, 2, `[]`}, {1, 2, `null`},
		{1, 2, ` [1,2]`}, {1, 2, `[1, 2]`}, {1, 2, `[1,2] `},
		{1, 2, `[01,2]`}, {1, 2, `[1.,2]`}, {1, 2, `[.5,2]`}, {1, 2, `[1e,2]`}, {1, 2, `[+1,2]`},
		{1, 2, `[0x1p-2,2]`}, {1, 2, `[1_0,2]`}, {1, 2, `[inf,2]`}, {1, 2, `[Infinity,2]`},
		{1, 2, `[1,2`}, {1, 2, `1,2]`}, {1, 2, `["1",2]`}, {1, 2, `[null,2]`}, {1, 2, `[[1],2]`}, {1, 2, `{}`},
	} {
		f.Add(bits(s.x), bits(s.y), []byte(s.data))
	}
	f.Fuzz(func(t *testing.T, xbits, ybits uint64, data []byte) {
		// Encode: the bytes json.Marshal writes for the pair, or a refusal
		// wherever it refuses.
		x, y := math.Float64frombits(xbits), math.Float64frombits(ybits)
		got, gotErr := Coord{X: x, Y: y}.MarshalJSON()
		want, wantErr := json.Marshal([2]float64{x, y})
		if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("(%v, %v): MarshalJSON %q err=%v, json.Marshal %q err=%v", x, y, got, gotErr, want, wantErr)
		}

		// Decode: parsePair against encoding/json, bit for bit, wherever it
		// accepts; and on the form MarshalJSON writes, it accepts.
		var slow Coord
		slowErr := json.Unmarshal(data, &slow)
		if px, py, ok := parsePair(data); ok && (slowErr != nil || bits(px) != bits(slow.X) || bits(py) != bits(slow.Y)) {
			t.Fatalf("%q: parsePair (%v, %v), encoding/json %v err=%v", data, px, py, slow, slowErr)
		}
		if gotErr == nil {
			if px, py, ok := parsePair(got); !ok || bits(px) != bits(x) || bits(py) != bits(y) {
				t.Fatalf("%q: parsePair reads (%v, %v) ok=%t, want (%v, %v)", got, px, py, ok, x, y)
			}
		}
	})
}

// TestResponsesEncodeAsPlainSlices: a response's ids, on /v1/query and on
// every kind of /v1/queryall line — a region's ids, an empty region, the
// trailer — are written as json.Marshal writes a plain []int64, and read
// back through the one-pass decoder.
func TestResponsesEncodeAsPlainSlices(t *testing.T) {
	type plain struct {
		IDs   []int64 `json:"ids,omitempty"`
		Count int     `json:"count"`
		Stats *Stats  `json:"stats,omitempty"`
	}
	ids := []int64{0, 7, -3, 1 << 40, math.MaxInt64, math.MinInt64}
	for _, resp := range []QueryResponse{
		{IDs: ids, Count: 6},
		{IDs: []int64{}},
		{},
		{Count: 6, Stats: &Stats{ResultSize: 6, Candidates: 9}},
	} {
		got := resp.AppendJSON(nil)
		want, _ := json.Marshal(plain(resp))
		if !bytes.Equal(got, want) {
			t.Errorf("encoded %s, plain slices encode %s", got, want)
		}
		back, err := DecodeQueryResponse(got, nil)
		if err != nil || len(back.IDs) != len(resp.IDs) || back.Count != resp.Count || (back.Stats == nil) != (resp.Stats == nil) {
			t.Errorf("%s decodes to %+v, err=%v", got, back, err)
		}
	}
}

// TestQueryResponseDecodeAllocs pins what decoding a 1000-id response may
// allocate: the id array once and the statistics — not one value per id,
// and nothing of encoding/json's. Under the race detector the decode
// still runs, held to the bound that instrumentation leaves it.
func TestQueryResponseDecodeAllocs(t *testing.T) {
	bound := 2.0
	if raceEnabled {
		bound = 3
	}
	ids := make([]int64, 1000)
	for i := range ids {
		ids[i] = int64(i * 197)
	}
	body := QueryResponse{IDs: ids, Count: len(ids), Stats: &Stats{ResultSize: len(ids), Candidates: 1177}}.AppendJSON(nil)
	var resp QueryResponse
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if resp, err = DecodeQueryResponse(body, nil); err != nil {
			t.Fatal(err)
		}
	})
	if len(resp.IDs) != len(ids) || resp.IDs[999] != ids[999] || resp.Stats.Candidates != 1177 {
		t.Fatalf("decoded %d ids, stats %+v", len(resp.IDs), resp.Stats)
	}
	t.Logf("%.0f allocations per 1000-id QueryResponse", allocs)
	if allocs > bound {
		t.Errorf("decoding a 1000-id QueryResponse allocates %.0f times, want <= %.0f", allocs, bound)
	}
}
