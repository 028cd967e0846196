// Package wire is the canonical JSON encoding of the serving layer: the
// one representation of regions, query options, statistics and results
// that cmd/areaserve and the remote client engine agree on.
//
// The equality contract: two regions encode equal iff they are the same
// shape vertex for vertex (ring structure, then every coordinate, centre
// and radius by its float64 bit pattern, so -0 is not +0), and every finite
// float64 round-trips bit-exactly (the encoder emits the shortest
// representation that parses back to the identical bits). Non-finite
// coordinates (NaN, ±Inf) are rejected on both encode and decode — they
// have no JSON representation and no geometric meaning — as are
// structurally invalid shapes (degenerate rings, negative radii), so a
// decoded region is always safe to query.
//
// A batch (/v1/queryall) is NDJSON of the /v1/query messages: a
// QueryRequest line per region, all with the same options, answered by a
// QueryResponse line per region (none under count-only) without statistics
// and a last one with the total count and the statistics, without ids.
// Streaming results ride in NDJSON frames (see Frame): data frames carrying
// id and coordinates, a final EOF frame the statistics or the error.
package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/geom"
)

// Coord is a point on the wire, encoded as a two-element JSON array
// [x, y]. Both encode and decode reject non-finite values.
type Coord struct {
	X, Y float64
}

// errNonFinite is the coordinate-rejection error shared by encode and
// decode paths.
var errNonFinite = errors.New("wire: non-finite coordinate")

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// MarshalJSON implements json.Marshaler as the array form, byte for byte
// what json.Marshal([2]float64{c.X, c.Y}) writes, without the nested call.
func (c Coord) MarshalJSON() ([]byte, error) {
	return c.appendJSON(make([]byte, 0, 48)) // two shortest-form float64s are at most 24 bytes each
}

// appendJSON appends the array form MarshalJSON writes.
func (c Coord) appendJSON(b []byte) ([]byte, error) {
	if !finite(c.X, c.Y) {
		return nil, errNonFinite
	}
	b = append(b, '[')
	b = appendFloat(b, c.X)
	b = append(b, ',')
	b = appendFloat(b, c.Y)
	return append(b, ']'), nil
}

// appendFloat appends f in encoding/json's float64 format: the shortest
// decimal that parses back to the same bits, in exponent form below 1e-6
// and from 1e21 (as ES6 does), the exponent written without a leading zero.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// UnmarshalJSON implements json.Unmarshaler, rejecting anything but a
// two-element array of finite numbers. Only encoding/json's reflective
// decoder calls it; the one-pass decoders read a coordinate with parsePair.
func (c *Coord) UnmarshalJSON(data []byte) error {
	var a [2]float64
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	if !finite(a[0], a[1]) {
		return errNonFinite
	}
	c.X, c.Y = a[0], a[1]
	return nil
}

// parsePair parses the canonical form "[number,number]", or reports that
// data is not in it (or that a number overflows, which is encoding/json's
// to report).
func parsePair(data []byte) (x, y float64, ok bool) {
	n := len(data)
	if n < 5 || data[0] != '[' || data[n-1] != ']' {
		return 0, 0, false
	}
	i := numberEnd(data, 1)
	if i == 1 || data[i] != ',' {
		return 0, 0, false
	}
	j := numberEnd(data, i+1)
	if j == i+1 || j != n-1 {
		return 0, 0, false
	}
	// numberEnd admitted only JSON's number grammar, which ParseFloat reads
	// as encoding/json does.
	x, errX := strconv.ParseFloat(string(data[1:i]), 64)
	y, errY := strconv.ParseFloat(string(data[i+1:j]), 64)
	return x, y, errX == nil && errY == nil
}

// numberEnd returns the index just past the JSON number starting at
// data[i], or i when none starts there. data must end in a byte no number
// contains (parsePair's ']'), so every index read here is in range and the
// result is < len(data).
func numberEnd(data []byte, i int) int {
	start := i
	if data[i] == '-' {
		i++
	}
	int0 := i
	if i = digitsEnd(data, i); i == int0 || (data[int0] == '0' && i > int0+1) {
		return start // no digits, or a leading zero
	}
	if data[i] == '.' {
		frac := i + 1
		if i = digitsEnd(data, frac); i == frac {
			return start
		}
	}
	if data[i] == 'e' || data[i] == 'E' {
		i++
		if data[i] == '+' || data[i] == '-' {
			i++
		}
		exp := i
		if i = digitsEnd(data, exp); i == exp {
			return start
		}
	}
	return i
}

// digitsEnd returns the index just past the run of ASCII digits at data[i],
// under numberEnd's condition on data.
func digitsEnd(data []byte, i int) int {
	for '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// Point converts to the geometry kernel's point.
func (c Coord) Point() geom.Point { return geom.Point{X: c.X, Y: c.Y} }

// FromPoint converts from the geometry kernel's point.
func FromPoint(p geom.Point) Coord { return Coord{X: p.X, Y: p.Y} }

// Region kinds.
const (
	KindPolygon = "polygon"
	KindCircle  = "circle"
)

// Region is a query shape on the wire. Kind selects the variant: a
// polygon carries Outer (and optionally Holes), a circle carries Center
// and R.
type Region struct {
	Kind   string    `json:"kind"`
	Outer  []Coord   `json:"outer,omitempty"`
	Holes  [][]Coord `json:"holes,omitempty"`
	Center *Coord    `json:"center,omitempty"`
	R      float64   `json:"r,omitempty"`
}

// EncodeRegion converts a core.Region into its wire form: a prepared
// polygon or a circle, the only shapes vaq's admission lets through; custom
// Region implementations (whose geometry the codec cannot see) return an
// error. Non-finite coordinates are rejected.
func EncodeRegion(r core.Region) (Region, error) {
	switch src := r.(type) {
	case *geom.PreparedPolygon:
		return encodePolygon(src.Polygon())
	case geom.Circle:
		if !finite(src.Center.X, src.Center.Y, src.R) {
			return Region{}, errNonFinite
		}
		center := FromPoint(src.Center)
		return Region{Kind: KindCircle, Center: &center, R: src.R}, nil
	default:
		return Region{}, fmt.Errorf("wire: region type %T has no wire encoding", r)
	}
}

func encodePolygon(pg geom.Polygon) (Region, error) {
	out := Region{Kind: KindPolygon}
	var err error
	if out.Outer, err = encodeRing(pg.Outer); err != nil {
		return Region{}, err
	}
	for _, h := range pg.Holes {
		ring, err := encodeRing(h)
		if err != nil {
			return Region{}, err
		}
		out.Holes = append(out.Holes, ring)
	}
	return out, nil
}

func encodeRing(r geom.Ring) ([]Coord, error) {
	out := make([]Coord, len(r))
	for i, p := range r {
		if !finite(p.X, p.Y) {
			return nil, errNonFinite
		}
		out[i] = FromPoint(p)
	}
	return out, nil
}

func decodeRing(cs []Coord) []geom.Point {
	out := make([]geom.Point, len(cs))
	for i, c := range cs {
		out[i] = c.Point()
	}
	return out
}

// Decode validates the wire region and converts it back into a prepared
// core.Region — the exact shape EncodeRegion took apart. Invalid input
// (unknown kind, degenerate or self-intersecting rings, non-finite or
// negative radius) fails rather than producing a region that could crash
// a query.
func (r Region) Decode() (core.Region, error) {
	switch r.Kind {
	case KindPolygon:
		// Prepare checks the literal once: Err is the error NewPolygon and
		// AddHole would return.
		pg := geom.Polygon{Outer: decodeRing(r.Outer)}
		for _, h := range r.Holes {
			pg.Holes = append(pg.Holes, decodeRing(h))
		}
		pp := geom.Prepare(pg)
		if err := pp.Err(); err != nil {
			return nil, fmt.Errorf("wire: polygon: %w", err)
		}
		return pp, nil
	case KindCircle:
		if r.Center == nil {
			return nil, errors.New("wire: circle region missing center")
		}
		if !finite(r.Center.X, r.Center.Y, r.R) {
			return nil, errNonFinite
		}
		if r.R < 0 {
			return nil, errors.New("wire: circle region with negative radius")
		}
		return core.CircleRegion(geom.NewCircle(r.Center.Point(), r.R)), nil
	default:
		return nil, fmt.Errorf("wire: unknown region kind %q", r.Kind)
	}
}

// Options are the per-query options that travel with a request — exactly
// the result-shaping subset of the vaq option set (method, count-only).
// Stats and trace destinations are caller-local and stay on their side of
// the wire; the server always returns its statistics.
type Options struct {
	Method    string `json:"method,omitempty"`
	CountOnly bool   `json:"count_only,omitempty"`
}

// MethodString names a method on the wire (core's String names are the
// canonical wire values).
func MethodString(m core.Method) string { return m.String() }

// ParseMethod inverts MethodString over the defined methods, Traditional
// through BruteForce. Any other string is refused, the empty one included:
// a request that names no method leaves the choice to the engine's default.
func ParseMethod(s string) (core.Method, error) {
	for m := core.Traditional; m <= core.BruteForce; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("wire: unknown method %q", s)
}

// methodName returns b as a string, without allocating when it names a
// defined method, as a request that names one does.
func methodName(b []byte) string {
	for m := core.Traditional; m <= core.BruteForce; m++ {
		if s := m.String(); string(b) == s {
			return s
		}
	}
	return string(b)
}

// Stats is core.Stats on the wire: the query's deterministic work
// counters, so identical requests get identical bytes.
type Stats struct {
	ResultSize           int `json:"result_size,omitempty"`
	Candidates           int `json:"candidates,omitempty"`
	RedundantValidations int `json:"redundant_validations,omitempty"`
	SegmentTests         int `json:"segment_tests,omitempty"`
	CellTests            int `json:"cell_tests,omitempty"`
	IndexNodesVisited    int `json:"index_nodes_visited,omitempty"`
	RecordsLoaded        int `json:"records_loaded,omitempty"`
}

// FromStats converts engine statistics to wire form. The two structs have
// the same fields, so a counter added to core.Stats without its wire member
// fails to compile here.
func FromStats(st core.Stats) Stats { return Stats(st) }

// ToStats converts back.
func (s Stats) ToStats() core.Stats { return core.Stats(s) }

// QueryRequest is the body of POST /v1/query and /v1/each, and one line
// of a /v1/queryall body.
type QueryRequest struct {
	Region  Region  `json:"region"`
	Options Options `json:"options"`
}

// QueryResponse is the body of a successful /v1/query, and one line of a
// /v1/queryall response. Count always holds the match count; IDs is nil
// under count-only.
type QueryResponse struct {
	IDs   []int64 `json:"ids,omitempty"`
	Count int     `json:"count"`
	Stats *Stats  `json:"stats,omitempty"`
}

// Info is the body of GET /v1/info: what a client needs to fan out to
// this backend — its size, the global id its local id 0 corresponds to, and
// two rectangles (min x, min y, max x, max y) that must not be confused.
// Bounds is the universe: the rectangle the backend clips its cells to and
// admits regions by. DataBounds, when present, is the pruning key: a
// rectangle holding every point the backend will ever answer with, so a
// client may skip the backend for a region that misses it. Only a backend
// whose point set is fixed advertises one; without it a client prunes by
// the universe, which prunes nothing inside it.
type Info struct {
	Len        int         `json:"len"`
	Bounds     [4]float64  `json:"bounds"`
	DataBounds *[4]float64 `json:"data_bounds,omitempty"`
	IDOffset   int64       `json:"id_offset"`
	Flavor     string      `json:"flavor,omitempty"`
}

// Universe returns the bounds quadruple as a rectangle. A bounds with no
// area — inverted, degenerate, or the all-zero value of a server that names
// no universe — is refused: a client has nothing to admit regions by.
func (i Info) Universe() (geom.Rect, error) {
	u := toRect(i.Bounds)
	if !(u.MinX < u.MaxX && u.MinY < u.MaxY) {
		return geom.Rect{}, fmt.Errorf("wire: bounds %v is not a rectangle with area", i.Bounds)
	}
	return u, nil
}

// PruningKey returns the rectangle a client prunes this backend by:
// DataBounds when advertised — which must be a finite rectangle inside the
// universe, or the info is refused — and the universe otherwise.
func (i Info) PruningKey() (geom.Rect, error) {
	if i.DataBounds == nil {
		return i.Universe()
	}
	d := toRect(*i.DataBounds)
	if !finite(i.DataBounds[:]...) || d.IsEmpty() || !toRect(i.Bounds).ContainsRect(d) {
		return geom.Rect{}, fmt.Errorf("wire: data_bounds %v is not a finite rectangle inside bounds %v", *i.DataBounds, i.Bounds)
	}
	return d, nil
}

// SetDataBounds advertises r as the pruning key, unless r is empty or
// non-finite: ±Inf has no JSON form, and no key means "prune by the
// universe".
func (i *Info) SetDataBounds(r geom.Rect) {
	if q := FromRect(r); !r.IsEmpty() && finite(q[:]...) {
		i.DataBounds = &q
	}
}

func toRect(q [4]float64) geom.Rect {
	return geom.Rect{MinX: q[0], MinY: q[1], MaxX: q[2], MaxY: q[3]}
}

// FromRect fills a bounds quadruple.
func FromRect(r geom.Rect) [4]float64 { return [4]float64{r.MinX, r.MinY, r.MaxX, r.MaxY} }

// Frame is one line of an NDJSON query stream (POST /v1/each). Data
// frames carry a result id and its coordinates; the final frame has EOF
// set and carries either the query's statistics or its error. A stream
// that ends without an EOF frame was truncated (disconnect) and must not
// be treated as complete.
type Frame struct {
	ID    int64   `json:"id"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	EOF   bool    `json:"eof,omitempty"`
	Stats *Stats  `json:"stats,omitempty"`
	Err   *Error  `json:"error,omitempty"`
}

// Error codes classify failures across the wire so the client can map
// them back to the sentinel errors local engines return.
const (
	CodeBadRequest      = "bad_request"
	CodeNoData          = "no_data"
	CodeOutsideUniverse = "outside_universe"
	CodeCanceled        = "canceled"
	CodeDeadline        = "deadline_exceeded"
	CodeInternal        = "internal"
)

// Error is the JSON error body (and the error half of an EOF frame).
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// EncodeError classifies err into a wire error. Callers that know better
// (bad request decoding) build the Error directly.
func EncodeError(err error) *Error {
	return &Error{Code: classify(err), Message: err.Error()}
}

func classify(err error) string {
	switch {
	case errors.Is(err, core.ErrNoData):
		return CodeNoData
	case errors.Is(err, core.ErrOutsideUniverse):
		return CodeOutsideUniverse
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return CodeDeadline
	default:
		return CodeInternal
	}
}

// HTTPStatus maps an error code to the response status the server uses.
// The client keys off the code, not the status; the status exists for
// curl users and proxies.
func HTTPStatus(code string) int {
	switch code {
	case CodeBadRequest:
		return 400
	case CodeNoData, CodeOutsideUniverse:
		return 422
	case CodeCanceled:
		return 499 // client closed request (nginx convention)
	case CodeDeadline:
		return 504
	default:
		return 500
	}
}

// Err converts a wire error back into a Go error whose chain matches the
// sentinel the server classified — errors.Is(err, core.ErrNoData),
// context.Canceled, context.DeadlineExceeded and core.ErrOutsideUniverse
// all work across the wire.
func (e *Error) Err() error {
	if e == nil {
		return nil
	}
	switch e.Code {
	case CodeNoData:
		return fmt.Errorf("%w (remote: %s)", core.ErrNoData, e.Message)
	case CodeOutsideUniverse:
		return fmt.Errorf("%w (remote: %s)", core.ErrOutsideUniverse, e.Message)
	case CodeCanceled:
		return fmt.Errorf("%w (remote: %s)", context.Canceled, e.Message)
	case CodeDeadline:
		return fmt.Errorf("%w (remote: %s)", context.DeadlineExceeded, e.Message)
	default:
		return fmt.Errorf("wire: remote error (%s): %s", e.Code, e.Message)
	}
}

// TimeoutHeader is the deadline-propagation header: the client sets it to
// its context's remaining budget in integer milliseconds, and the server
// bounds the query's context by it — so a deadline crossing the wire
// expires server-side even when the transport connection lingers.
const TimeoutHeader = "Vaq-Timeout-Ms"
