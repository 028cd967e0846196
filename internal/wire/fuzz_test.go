package wire

import (
	"encoding/json"
	"math"
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
