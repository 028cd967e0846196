package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"slices"
	"strconv"
	"sync"
)

// The two messages of /v1/query — QueryRequest and QueryResponse — have
// one hand-written codec, used on both ends of the route and, line by
// line, of /v1/queryall. Each AppendJSON appends exactly the bytes
// json.Marshal writes for the message (a server's response, and every
// batch line, adds the newline json.Encoder writes after it), so no byte on
// the wire differs from the reflective encoding. Each Decode function
// parses that canonical form in one pass and hands every other input to
// encoding/json, so what is accepted, what is refused and every value are
// encoding/json's; the fuzz targets in fuzz_test.go hold both halves to it.

// AppendJSON appends r as json.Marshal writes it, or fails where it fails:
// on a non-finite coordinate or radius.
func (r QueryRequest) AppendJSON(b []byte) ([]byte, error) {
	b = slices.Grow(b, r.Region.sizeHint()+64)
	b = append(b, `{"region":`...)
	b, err := r.Region.appendJSON(b)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"options":`...)
	return append(r.Options.appendJSON(b), '}'), nil
}

// AppendJSON appends r as json.Marshal writes it.
func (r QueryResponse) AppendJSON(b []byte) []byte {
	b = append(b, '{')
	if len(r.IDs) > 0 {
		b = append(b, `"ids":[`...)
		for i, id := range r.IDs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, id, 10)
		}
		b = append(b, "],"...)
	}
	b = append(b, `"count":`...)
	b = strconv.AppendInt(b, int64(r.Count), 10)
	return append(r.Stats.appendMember(b), '}')
}

// sizeHint is about the length of r's JSON form: a coordinate pair is at
// most 51 bytes and usually under 40.
func (r Region) sizeHint() int {
	n := len(r.Outer)
	for _, h := range r.Holes {
		n += len(h)
	}
	return 64 + 40*n
}

func (r Region) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"kind":`...)
	b = appendString(b, r.Kind)
	var err error
	if len(r.Outer) > 0 {
		b = append(b, `,"outer":`...)
		if b, err = appendCoords(b, r.Outer); err != nil {
			return nil, err
		}
	}
	if len(r.Holes) > 0 {
		b = append(b, `,"holes":[`...)
		for i, h := range r.Holes {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendCoords(b, h); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	if r.Center != nil {
		b = append(b, `,"center":`...)
		if b, err = r.Center.appendJSON(b); err != nil {
			return nil, err
		}
	}
	if r.R != 0 {
		if !finite(r.R) {
			return nil, errNonFinite
		}
		b = append(b, `,"r":`...)
		b = appendFloat(b, r.R)
	}
	return append(b, '}'), nil
}

// appendCoords appends a coordinate list, null when it is nil.
func appendCoords(b []byte, cs []Coord) ([]byte, error) {
	if cs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, c := range cs {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = c.appendJSON(b); err != nil {
			return nil, err
		}
	}
	return append(b, ']'), nil
}

func (o Options) appendJSON(b []byte) []byte {
	b = append(b, '{')
	if o.Method != "" {
		b = append(b, `"method":`...)
		b = appendString(b, o.Method)
	}
	if o.CountOnly {
		if o.Method != "" {
			b = append(b, ',')
		}
		b = append(b, `"count_only":true`...)
	}
	return append(b, '}')
}

// statsFields are Stats' members in declaration order: the keys its JSON
// form writes, each omitted when zero.
var statsFields = [...]struct {
	key string // `"name":`
	at  func(*Stats) *int
}{
	{`"result_size":`, func(s *Stats) *int { return &s.ResultSize }},
	{`"candidates":`, func(s *Stats) *int { return &s.Candidates }},
	{`"redundant_validations":`, func(s *Stats) *int { return &s.RedundantValidations }},
	{`"segment_tests":`, func(s *Stats) *int { return &s.SegmentTests }},
	{`"cell_tests":`, func(s *Stats) *int { return &s.CellTests }},
	{`"index_nodes_visited":`, func(s *Stats) *int { return &s.IndexNodesVisited }},
	{`"records_loaded":`, func(s *Stats) *int { return &s.RecordsLoaded }},
}

// appendMember appends the responses' optional `,"stats":{...}` member,
// nothing when s is nil.
func (s *Stats) appendMember(b []byte) []byte {
	if s == nil {
		return b
	}
	b = append(b, `,"stats":{`...)
	members := 0
	for _, f := range statsFields {
		if v := *f.at(s); v != 0 {
			if members > 0 {
				b = append(b, ',')
			}
			members++
			b = append(b, f.key...)
			b = strconv.AppendInt(b, int64(v), 10)
		}
	}
	return append(b, '}')
}

// appendString appends s as json.Marshal writes a string. Printable ASCII
// other than the quote, the backslash and the three characters
// encoding/json escapes for HTML is written as it is; any other string is
// left to encoding/json, which cannot fail on one.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// ReadBody reads a message body whole into b's storage. A body of known
// length (0 ≤ length ≤ maxKnownLength) is one io.ReadFull of exactly that
// many bytes, so a short one is io.ErrUnexpectedEOF; any other is read to
// EOF, its buffer growing only as bytes arrive.
func ReadBody(r io.Reader, length int64, b []byte) ([]byte, error) {
	if length < 0 || length > maxKnownLength {
		return io.ReadAll(r)
	}
	b = slices.Grow(b[:0], int(length))[:length]
	_, err := io.ReadFull(r, b)
	return b, err
}

// maxKnownLength is the largest stated length ReadBody allocates for up
// front: a peer cannot make it allocate more than that before sending it.
// A longer body is still read, growing as it arrives.
const maxKnownLength = 1 << 20

// buffers holds the byte slices a unary call reads its body into and, on
// the server, appends its response into. PutBuffer drops one a large body
// grew past maxPooledBuffer, so the pool keeps no more than that per
// buffer however large the largest message was.
var buffers = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

const maxPooledBuffer = 64 << 10

// GetBuffer checks an empty buffer out of the pool; the caller hands it
// back with PutBuffer once nothing it decoded or wrote aliases it.
//
//vaq:pooled
func GetBuffer() *[]byte { return buffers.Get().(*[]byte) }

// PutBuffer returns b to the pool.
func PutBuffer(b *[]byte) {
	if cap(*b) <= maxPooledBuffer {
		*b = (*b)[:0]
		buffers.Put(b)
	}
}

// DecodeQueryRequest decodes the body of POST /v1/query or /v1/each, or
// one line of /v1/queryall's. The message is one JSON value with no member
// QueryRequest lacks, followed by nothing but whitespace: the canonical
// form is parsed in one pass, and any other input is decoded by a
// json.Decoder that disallows unknown fields.
func DecodeQueryRequest(data []byte) (QueryRequest, error) {
	var req QueryRequest
	if c := canonicalOf(data); c.queryRequest(&req) {
		return req, nil
	}
	var v QueryRequest // req may hold part of a message the cursor gave up on
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return v, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return v, errors.New("wire: trailing data after the request")
	}
	return v, nil
}

// DecodeQueryResponse decodes the body of a successful /v1/query, or one
// line of /v1/queryall's, as a json.Decoder reads its first value. On the
// canonical form the ids are appended to dst[:0], so a caller may pass a
// buffer to reuse; a message without ids decodes to nil IDs whatever dst
// is.
func DecodeQueryResponse(data []byte, dst []int64) (QueryResponse, error) {
	var resp QueryResponse
	if c := canonicalOf(data); c.queryResponse(&resp, dst) {
		return resp, nil
	}
	var v QueryResponse // resp may hold part of a message the cursor gave up on
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&v)
	return v, err
}

// canonical is a cursor over a message that may be in the canonical form:
// the bytes AppendJSON writes, with one newline after them or none. Every
// method reports through ok; once it is false the message is not in that
// form (or holds a number encoding/json would refuse) and is left to
// encoding/json whole.
type canonical struct {
	data []byte // ends in '}': every number and digit run stops in range
	i    int
	ok   bool
}

func canonicalOf(data []byte) canonical {
	if n := len(data); n > 0 && data[n-1] == '\n' {
		data = data[:n-1]
	}
	n := len(data)
	return canonical{data: data, ok: n > 0 && data[n-1] == '}'}
}

// done reports whether the whole message was read in the canonical form.
func (c *canonical) done() bool { return c.ok && c.i == len(c.data) }

// lit consumes s if the message continues with it.
func (c *canonical) lit(s string) bool {
	if c.ok && len(c.data)-c.i >= len(s) && string(c.data[c.i:c.i+len(s)]) == s {
		c.i += len(s)
		return true
	}
	return false
}

// need consumes s, which the canonical form has here.
func (c *canonical) need(s string) {
	if !c.lit(s) {
		c.ok = false
	}
}

// member consumes an optional object member's key: after a comma unless it
// is the object's first member, counted in members.
func (c *canonical) member(members *int, key string) bool {
	at := c.i
	if *members > 0 && !c.lit(",") {
		return false
	}
	if !c.lit(key) {
		c.i = at
		return false
	}
	*members++
	return true
}

// next returns the byte at the cursor, 0 past the end.
func (c *canonical) next() byte {
	if !c.ok || c.i >= len(c.data) {
		return 0
	}
	return c.data[c.i]
}

// integer reads an integer of at most maxFastDigits digits without a leading
// zero, the form strconv.AppendInt writes for an int of that size.
func (c *canonical) integer() int {
	neg := c.next() == '-'
	if neg {
		c.i++
	}
	digits := c.i
	var v int64
	for ; '0' <= c.next() && c.next() <= '9'; c.i++ {
		v = v*10 + int64(c.data[c.i]-'0')
	}
	if neg {
		v = -v
	}
	if n := c.i - digits; n == 0 || n > maxFastDigits || (n > 1 && c.data[digits] == '0') || int64(int(v)) != v {
		c.ok = false
		return 0
	}
	return int(v)
}

// float reads a JSON number that parses to a finite float64.
func (c *canonical) float() float64 {
	if c.next() == 0 {
		c.ok = false
		return 0
	}
	end := numberEnd(c.data, c.i)
	v, err := strconv.ParseFloat(string(c.data[c.i:end]), 64)
	if end == c.i || err != nil {
		c.ok = false
		return 0
	}
	c.i = end
	return v
}

// str reads a string of printable ASCII without escapes.
func (c *canonical) str() string { return string(c.strBytes()) }

// strBytes is str's bytes, read in place.
func (c *canonical) strBytes() []byte {
	if c.next() != '"' {
		c.ok = false
		return nil
	}
	start := c.i + 1
	end := start
	for ; end < len(c.data) && c.data[end] != '"'; end++ {
		if b := c.data[end]; b < 0x20 || b >= 0x80 || b == '\\' {
			c.ok = false
			return nil
		}
	}
	if end == len(c.data) {
		c.ok = false
		return nil
	}
	c.i = end + 1
	return c.data[start:end]
}

// closing returns the index of the first b at or after the cursor, or -1.
func (c *canonical) closing(b byte) int {
	if j := bytes.IndexByte(c.data[c.i:], b); j >= 0 {
		return c.i + j
	}
	return -1
}

// coord reads "[x,y]" through parsePair.
func (c *canonical) coord() Coord {
	end := c.closing(']')
	if c.next() != '[' || end < 0 {
		c.ok = false
		return Coord{}
	}
	x, y, ok := parsePair(c.data[c.i : end+1])
	if !ok {
		c.ok = false
		return Coord{}
	}
	c.i = end + 1
	return Coord{X: x, Y: y}
}

// coords reads a coordinate list: null, [] or coordinates.
func (c *canonical) coords() []Coord {
	if c.lit("null") {
		return nil
	}
	c.need("[")
	if c.lit("]") {
		return []Coord{}
	}
	// The list ends at the first "]]"; each coordinate closes one ']'.
	n := 1
	if j := bytes.Index(c.data[c.i:], []byte("]]")); j >= 0 {
		n = bytes.Count(c.data[c.i:c.i+j+1], []byte{']'})
	}
	out := make([]Coord, 0, n)
	for c.ok {
		out = append(out, c.coord())
		if c.lit("]") {
			return out
		}
		c.need(",")
	}
	return nil
}

// holes reads null (nil) or an array of coordinate lists (never nil).
func (c *canonical) holes() [][]Coord {
	if c.lit("null") {
		return nil
	}
	c.need("[")
	out := [][]Coord{}
	for c.ok && !c.lit("]") {
		if len(out) > 0 {
			c.need(",")
		}
		out = append(out, c.coords())
	}
	return out
}

func (c *canonical) region() Region {
	var r Region
	c.need(`{"kind":`)
	r.Kind = c.str()
	if c.lit(`,"outer":`) {
		r.Outer = c.coords()
	}
	if c.lit(`,"holes":`) {
		r.Holes = c.holes()
	}
	if c.lit(`,"center":`) {
		center := c.coord()
		r.Center = &center
	}
	if c.lit(`,"r":`) {
		r.R = c.float()
	}
	c.need("}")
	return r
}

func (c *canonical) options() Options {
	var o Options
	members := 0
	c.need("{")
	if c.member(&members, `"method":`) {
		o.Method = methodName(c.strBytes())
	}
	if c.member(&members, `"count_only":true`) {
		o.CountOnly = true
	}
	c.need("}")
	return o
}

func (c *canonical) stats() *Stats {
	if c.lit("null") {
		return nil
	}
	s := new(Stats)
	members := 0
	c.need("{")
	for _, f := range statsFields {
		if c.member(&members, f.key) {
			*f.at(s) = c.integer()
		}
	}
	c.need("}")
	return s
}

// ids reads an id array through appendIDs, appending to dst[:0]; null is
// nil.
func (c *canonical) ids(dst []int64) []int64 {
	if c.lit("null") {
		return nil
	}
	end := c.closing(']')
	if c.next() != '[' || end < 0 {
		c.ok = false
		return nil
	}
	out, ok := appendIDs(dst, c.data[c.i:end+1])
	if !ok {
		c.ok = false
		return nil
	}
	c.i = end + 1
	return out
}

func (c *canonical) queryRequest(req *QueryRequest) bool {
	c.need(`{"region":`)
	req.Region = c.region()
	c.need(`,"options":`)
	req.Options = c.options()
	c.need("}")
	return c.done()
}

func (c *canonical) queryResponse(resp *QueryResponse, dst []int64) bool {
	members := 0
	c.need("{")
	if c.member(&members, `"ids":`) {
		resp.IDs = c.ids(dst)
	}
	if !c.member(&members, `"count":`) {
		return false
	}
	resp.Count = c.integer()
	if c.lit(`,"stats":`) {
		resp.Stats = c.stats()
	}
	c.need("}")
	return c.done()
}
