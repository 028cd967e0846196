package wire

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// sameGeometry reports whether a and b are the same shape bit for bit —
// the codec's equality contract — read through the concrete types the codec
// encodes, a prepared polygon and a circle. It compares math.Float64bits,
// so -0 and +0 differ.
func sameGeometry(a, b core.Region) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	sameRing := func(x, y geom.Ring) bool {
		return slices.EqualFunc(x, y, func(p, q geom.Point) bool { return same(p.X, q.X) && same(p.Y, q.Y) })
	}
	if pa, ok := a.(*geom.PreparedPolygon); ok {
		pb, ok := b.(*geom.PreparedPolygon)
		return ok && sameRing(pa.Polygon().Outer, pb.Polygon().Outer) && slices.EqualFunc(pa.Polygon().Holes, pb.Polygon().Holes, sameRing)
	}
	ca, okA := a.(geom.Circle)
	cb, okB := b.(geom.Circle)
	return okA && okB && same(ca.Center.X, cb.Center.X) && same(ca.Center.Y, cb.Center.Y) && same(ca.R, cb.R)
}

// roundTrip encodes region → JSON → decodes and returns the result.
func roundTrip(t *testing.T, r core.Region) core.Region {
	t.Helper()
	wr, err := EncodeRegion(r)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	data, err := json.Marshal(wr)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Region
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	dec, err := back.Decode()
	if err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	return dec
}

func TestRegionRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bounds := geom.NewRect(0, 0, 1, 1)

	regions := map[string]core.Region{
		"triangle": core.PolygonRegion(geom.MustPolygon([]geom.Point{
			geom.Pt(0.1, 0.1), geom.Pt(0.7, 0.2), geom.Pt(0.3, 0.9)})),
		"circle": core.CircleRegion(geom.NewCircle(geom.Pt(0.25, 0.75), 0.125)),
		// Awkward float bit patterns: results of arithmetic, not literals.
		"bitty": core.CircleRegion(geom.NewCircle(geom.Pt(1.0/3.0, 2.0/7.0), math.Nextafter(0.1, 1))),
		// -0 == +0 as floats; only a bitwise oracle sees the sign survive.
		"negative zero": core.CircleRegion(geom.NewCircle(geom.Pt(math.Copysign(0, -1), 0.5), 0.25)),
	}
	for i := 0; i < 8; i++ {
		pg := workload.RandomPolygon(rng, workload.PolygonConfig{Vertices: 10, QuerySize: 0.03}, bounds)
		regions["random"] = core.PolygonRegion(pg)
	}
	holed := geom.MustPolygon([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)})
	if err := holed.AddHole([]geom.Point{geom.Pt(0.4, 0.4), geom.Pt(0.6, 0.4), geom.Pt(0.5, 0.6)}); err != nil {
		t.Fatal(err)
	}
	regions["holed"] = core.PolygonRegion(holed)
	// A plain polygon has no wire form: vaq's admission prepares it first.
	if _, err := EncodeRegion(holed); err == nil {
		t.Error("a plain polygon encoded")
	}

	for name, r := range regions {
		dec := roundTrip(t, r)
		if !sameGeometry(dec, r) {
			t.Errorf("%s: round-trip changed the geometry\n got %+v\nwant %+v", name, dec, r)
		}
	}
}

func TestRegionRejectsNonFinite(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, v := range bad {
		// Encode-side rejection.
		if _, err := EncodeRegion(core.CircleRegion(geom.Circle{Center: geom.Pt(v, 0.5), R: 0.1})); err == nil {
			t.Errorf("encode accepted center.x=%v", v)
		}
		if _, err := (Coord{X: v, Y: 0}).MarshalJSON(); err == nil {
			t.Errorf("Coord.MarshalJSON accepted x=%v", v)
		}
		// Decode-side rejection of a hand-built wire value.
		r := Region{Kind: KindCircle, Center: &Coord{X: 0.5, Y: 0.5}, R: v}
		if _, err := r.Decode(); err == nil {
			t.Errorf("decode accepted r=%v", v)
		}
		r = Region{Kind: KindCircle, Center: &Coord{X: v, Y: 0.5}, R: 0.1}
		if _, err := r.Decode(); err == nil {
			t.Errorf("decode accepted center.x=%v", v)
		}
	}
	// JSON cannot even express them: a numeric overflow must fail cleanly.
	var c Coord
	if err := json.Unmarshal([]byte(`[1e999, 0]`), &c); err == nil {
		t.Error("decoded out-of-range float without error")
	}
}

func TestRegionDecodeRejectsInvalid(t *testing.T) {
	cases := map[string]Region{
		"unknown kind": {Kind: "blob"},
		"no kind":      {},
		"two-vertex":   {Kind: KindPolygon, Outer: []Coord{{0, 0}, {1, 1}}},
		"zero area":    {Kind: KindPolygon, Outer: []Coord{{0, 0}, {1, 1}, {2, 2}}},
		"self-intersecting": {Kind: KindPolygon, Outer: []Coord{
			{0, 0}, {1, 1}, {1, 0}, {0, 1}}},
		"bad hole": {Kind: KindPolygon, Outer: []Coord{{0, 0}, {1, 0}, {1, 1}, {0, 1}},
			Holes: [][]Coord{{{0.2, 0.2}, {0.3, 0.3}}}},
		"negative radius": {Kind: KindCircle, Center: &Coord{0.5, 0.5}, R: -0.25},
		"missing center":  {Kind: KindCircle, R: 0.25},
	}
	for name, r := range cases {
		if _, err := r.Decode(); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestMethodRoundTrip(t *testing.T) {
	for _, m := range []core.Method{core.Traditional, core.VoronoiBFS, core.VoronoiBFSStrict, core.BruteForce} {
		back, err := ParseMethod(MethodString(m))
		if err != nil || back != m {
			t.Errorf("method %v: round-trip got (%v, %v)", m, back, err)
		}
	}
	for _, s := range []string{"", "dijkstra", core.Method(99).String()} {
		if m, err := ParseMethod(s); err == nil {
			t.Errorf("method %q parsed as %v without error", s, m)
		}
	}
}

func TestStatsRoundTrip(t *testing.T) {
	st := core.Stats{
		ResultSize: 41, Candidates: 57,
		RedundantValidations: 16, SegmentTests: 3, CellTests: 88,
		IndexNodesVisited: 12, RecordsLoaded: 57,
	}
	data, err := json.Marshal(FromStats(st))
	if err != nil {
		t.Fatal(err)
	}
	var ws Stats
	if err := json.Unmarshal(data, &ws); err != nil {
		t.Fatal(err)
	}
	if got := ws.ToStats(); got != st {
		t.Errorf("stats round trip:\n got %+v\nwant %+v", got, st)
	}
}

func TestErrorMapping(t *testing.T) {
	cases := []struct {
		err  error
		code string
		want error
	}{
		{core.ErrNoData, CodeNoData, core.ErrNoData},
		{core.ErrOutsideUniverse, CodeOutsideUniverse, core.ErrOutsideUniverse},
		{context.Canceled, CodeCanceled, context.Canceled},
		{context.DeadlineExceeded, CodeDeadline, context.DeadlineExceeded},
		{errors.New("disk on fire"), CodeInternal, nil},
	}
	for _, c := range cases {
		we := EncodeError(c.err)
		if we.Code != c.code {
			t.Errorf("%v: classified %q, want %q", c.err, we.Code, c.code)
		}
		back := we.Err()
		if c.want != nil && !errors.Is(back, c.want) {
			t.Errorf("%v: decoded error %v does not match sentinel", c.err, back)
		}
		if back == nil {
			t.Errorf("%v: decoded to nil error", c.err)
		}
	}
	if (*Error)(nil).Err() != nil {
		t.Error("nil wire error should decode to nil")
	}
}

func TestFrameShapes(t *testing.T) {
	data := Frame{ID: 17, X: 0.25, Y: 0.75}
	b, err := json.Marshal(data)
	if err != nil {
		t.Fatal(err)
	}
	var back Frame
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != data {
		t.Errorf("data frame round trip: got %+v", back)
	}
	eof := Frame{EOF: true, Stats: &Stats{ResultSize: 3}}
	b, err = json.Marshal(eof)
	if err != nil {
		t.Fatal(err)
	}
	back = Frame{}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !back.EOF || back.Stats == nil || back.Stats.ResultSize != 3 {
		t.Errorf("eof frame round trip: got %+v", back)
	}
}
