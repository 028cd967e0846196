package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// checkIDsAgainstEncodingJSON is the differential property of the id
// decoder: on any bytes, IDs.UnmarshalJSON and json.Unmarshal into a plain
// []int64 agree on error-or-not, on nil-or-not and on every value.
func checkIDsAgainstEncodingJSON(t *testing.T, data []byte) {
	t.Helper()
	var got IDs
	gotErr := got.UnmarshalJSON(data)
	var want []int64
	wantErr := json.Unmarshal(data, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: hand decoder err=%v, encoding/json err=%v", data, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%q: hand decoder %v (nil %t), encoding/json %v (nil %t)", data, got, got == nil, want, want == nil)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%q: id %d is %d, encoding/json reads %d", data, i, got[i], want[i])
		}
	}
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

		// Decode: the fast path against the encoding/json one, bit for bit.
		var fast, slow Coord
		fastErr, slowErr := fast.UnmarshalJSON(data), slow.unmarshalSlow(data)
		if (fastErr == nil) != (slowErr == nil) {
			t.Fatalf("%q: fast err=%v, encoding/json err=%v", data, fastErr, slowErr)
		}
		if slowErr == nil && (bits(fast.X) != bits(slow.X) || bits(fast.Y) != bits(slow.Y)) {
			t.Fatalf("%q: fast %v, encoding/json %v", data, fast, slow)
		}
	})
}

// TestResponsesEncodeAsPlainSlices: IDs changed how responses decode, not
// one byte of how they encode.
func TestResponsesEncodeAsPlainSlices(t *testing.T) {
	type plainQuery struct {
		IDs   []int64 `json:"ids,omitempty"`
		Count int     `json:"count"`
	}
	type plainBatch struct {
		Results [][]int64 `json:"results"`
	}
	ids := []int64{0, 7, -3, 1 << 40, math.MaxInt64, math.MinInt64}
	for _, tc := range []struct{ got, want any }{
		{QueryResponse{IDs: ids, Count: 6}, plainQuery{ids, 6}},
		{QueryResponse{}, plainQuery{}},
		{BatchResponse{Results: []IDs{ids, {}, nil}}, plainBatch{[][]int64{ids, {}, nil}}},
	} {
		got, err := json.Marshal(tc.got)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(tc.want)
		if !bytes.Equal(got, want) {
			t.Errorf("encoded %s, a plain slice encodes %s", got, want)
		}
		// And what was written reads back through the hand decoder.
		if q, ok := tc.got.(QueryResponse); ok {
			var back QueryResponse
			if err := json.Unmarshal(got, &back); err != nil || len(back.IDs) != len(q.IDs) {
				t.Errorf("%s decodes to %v, err=%v", got, back.IDs, err)
			}
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
	ids := make(IDs, 1000)
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
