package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func sampleRecord(id int64) PointRecord {
	return PointRecord{
		ID:      id,
		Pos:     geom.Pt(float64(id)*0.1, float64(id)*0.2),
		Payload: bytes.Repeat([]byte{byte(id)}, 16),
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []PointRecord{
		{ID: 1, Pos: geom.Pt(0.5, -3.25)},
		{ID: -42, Pos: geom.Pt(1e-300, 1e300), Payload: []byte{7}},
		sampleRecord(9),
		{ID: 0, Pos: geom.Pt(0, 0), Payload: []byte{}},
	}
	for _, want := range recs {
		buf, err := want.encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != want.encodedLen() {
			t.Errorf("encodedLen = %d, actual %d", want.encodedLen(), len(buf))
		}
		got := decodeRecord(buf)
		if got.ID != want.ID || got.Pos != want.Pos {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
		if len(got.Payload) != len(want.Payload) {
			t.Errorf("payload: got %d bytes, want %d", len(got.Payload), len(want.Payload))
		}
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(id int64, x, y float64, payload []byte) bool {
		if len(payload) > 400 {
			return true
		}
		want := PointRecord{ID: id, Pos: geom.Pt(x, y), Payload: payload}
		buf, err := want.encode(nil)
		if err != nil {
			return false
		}
		got := decodeRecord(buf)
		if got.ID != want.ID {
			return false
		}
		// NaN-safe position comparison via bit patterns happens through
		// encode/decode; compare with reflect on the full struct except
		// NaN positions.
		if x == x && y == y && got.Pos != want.Pos {
			return false
		}
		return bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestDecodeTruncated shortens a record's slot length byte by byte: every
// cut, in the fixed header or in the payload its header declares, is
// refused as corrupt, and only the whole record reads.
func TestDecodeTruncated(t *testing.T) {
	rec := sampleRecord(5)
	page := onePage(t, rec)
	full := rec.encodedLen()
	for cut := 0; cut <= full; cut++ {
		binary.LittleEndian.PutUint16(page[pageHeaderLen+4:], uint16(cut))
		got, err := slotRecord(page, 0)
		if cut < full {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("a record cut to %d of %d bytes: err %v, want ErrCorrupt", cut, full, err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(decodeRecord(got), rec) {
			t.Fatalf("the whole record: %+v, %v", decodeRecord(got), err)
		}
	}
}

// onePage seals recs into one 512-byte page.
func onePage(t *testing.T, recs ...PointRecord) []byte {
	t.Helper()
	b := newPageBuilder(512)
	for i := range recs {
		if !b.fits(recs[i].encodedLen()) {
			t.Fatalf("record %d does not fit the page", i)
		}
		b.add(&recs[i])
	}
	return b.seal()
}

func TestStoreBasic(t *testing.T) {
	b := NewBuilder(Options{PageSize: 256, PoolPages: 4})
	const n = 100
	for i := int64(0); i < n; i++ {
		if err := b.Append(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != n {
		t.Fatalf("Len = %d", st.Len())
	}
	if st.NumPages() < 2 {
		t.Fatalf("expected multiple pages, got %d", st.NumPages())
	}
	for i := int64(0); i < n; i++ {
		rec, err := st.Get(i)
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		want := sampleRecord(i)
		if !reflect.DeepEqual(rec, want) {
			t.Fatalf("Get(%d) = %+v, want %+v", i, rec, want)
		}
	}
	if _, err := st.Get(12345); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing id: err = %v", err)
	}
}

// TestDuplicateIDRejected pins the each-id-once contract of Append: ids
// arrive in any order; a repeat, a negative id and one past the directory's
// limit are rejected at Append and leave the builder usable; a gap is
// rejected at Build. Every record is then found by its id wherever it went.
func TestDuplicateIDRejected(t *testing.T) {
	b := NewBuilder(Options{PageSize: 256})
	order := []int64{3, 0, 2}
	for _, id := range order {
		if err := b.Append(sampleRecord(id)); err != nil {
			t.Fatalf("id %d: %v", id, err)
		}
	}
	for _, id := range []int64{3, 0, 2, -1, maxRecords} {
		if err := b.Append(sampleRecord(id)); err == nil {
			t.Errorf("id %d after %v should be rejected", id, order)
		}
	}
	if err := b.Append(sampleRecord(1)); err != nil {
		t.Fatalf("the missing id after rejections: %v", err)
	}
	st, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 4 {
		t.Errorf("Len = %d, want 4", st.Len())
	}
	for id := int64(0); id < 4; id++ {
		if rec, err := st.Get(id); err != nil || !reflect.DeepEqual(rec, sampleRecord(id)) {
			t.Errorf("Get(%d) = %+v, %v", id, rec, err)
		}
	}
	if got, want := st.RIDOf(3), (RID{Page: 0, Slot: 0}); got != want {
		t.Errorf("the first record appended is at %+v, want %+v", got, want)
	}

	gap := NewBuilder(Options{})
	for _, id := range []int64{0, 2} {
		if err := gap.Append(sampleRecord(id)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := gap.Build(); err == nil || !strings.Contains(err.Error(), "record id 1 missing") {
		t.Errorf("Build over ids 0 and 2: err = %v, want id 1 missing", err)
	}
}

// TestGetOutsideDirectory pins the id range check that replaced the map
// lookup: the ids just past either end of the directory are ErrNotFound on
// both read paths, and cost no IO.
func TestGetOutsideDirectory(t *testing.T) {
	b := NewBuilder(Options{PageSize: 256, PoolPages: 4})
	for i := int64(0); i < 10; i++ {
		if err := b.Append(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int64{-1, int64(st.Len())} {
		if _, err := st.Get(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get(%d): err = %v, want ErrNotFound", id, err)
		}
		if _, err := st.GetPosition(id, nil, 0, nil); !errors.Is(err, ErrNotFound) {
			t.Errorf("GetPosition(%d): err = %v, want ErrNotFound", id, err)
		}
	}
	if got := st.Stats(); got != (BufferPoolStats{}) {
		t.Errorf("out-of-range ids touched the pool: %+v", got)
	}
}

func TestRecordTooLarge(t *testing.T) {
	b := NewBuilder(Options{PageSize: 64})
	rec := sampleRecord(0)
	rec.Payload = make([]byte, 128)
	if err := b.Append(rec); !errors.Is(err, ErrRecordTooLarge) {
		t.Errorf("err = %v, want ErrRecordTooLarge", err)
	}
}

func TestBufferPoolCounting(t *testing.T) {
	b := NewBuilder(Options{PageSize: 256, PoolPages: 2})
	for i := int64(0); i < 60; i++ {
		if err := b.Append(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// First read: miss. Second read of the same id: hit.
	if _, err := st.Get(0); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.PageReads != 1 || got.CacheHits != 0 {
		t.Fatalf("after first read: %+v", got)
	}
	if _, err := st.Get(0); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.PageReads != 1 || got.CacheHits != 1 {
		t.Fatalf("after repeat read: %+v", got)
	}
	// Thrash more pages than the pool holds: evictions and re-reads.
	for i := int64(0); i < 60; i++ {
		if _, err := st.Get(i); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.Evictions == 0 {
		t.Errorf("expected evictions with tiny pool: %+v", stats)
	}
	if stats.BytesRead != int64(stats.PageReads)*256 {
		t.Errorf("BytesRead %d != PageReads %d × 256", stats.BytesRead, stats.PageReads)
	}
	// Cold cache after DropCache.
	st.DropCache()
	if _, err := st.Get(0); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.PageReads != 1 || got.CacheHits != 0 {
		t.Fatalf("after drop: %+v", got)
	}
}

func TestZeroPoolAlwaysMisses(t *testing.T) {
	b := NewBuilder(Options{PageSize: 512, PoolPages: 0})
	for i := int64(0); i < 10; i++ {
		if err := b.Append(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if _, err := st.Get(3); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Stats(); got.PageReads != 5 || got.CacheHits != 0 {
		t.Errorf("zero pool: %+v", got)
	}
}

func TestUnboundedPoolNeverEvicts(t *testing.T) {
	b := NewBuilder(Options{PageSize: 128, PoolPages: -1})
	for i := int64(0); i < 200; i++ {
		rec := sampleRecord(i)
		rec.Payload = nil
		if err := b.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		for i := int64(0); i < 200; i++ {
			if _, err := st.Get(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats := st.Stats()
	if stats.Evictions != 0 {
		t.Errorf("unbounded pool evicted: %+v", stats)
	}
	if stats.PageReads != st.NumPages() {
		t.Errorf("PageReads %d != NumPages %d", stats.PageReads, st.NumPages())
	}
}

func BenchmarkGetHot(b *testing.B) {
	bl := NewBuilder(Options{PoolPages: -1})
	for i := int64(0); i < 10000; i++ {
		if err := bl.Append(sampleRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	st, err := bl.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Get(int64(i % 10000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetCold(b *testing.B) {
	bl := NewBuilder(Options{PoolPages: 0})
	for i := int64(0); i < 10000; i++ {
		if err := bl.Append(sampleRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	st, err := bl.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Get(int64(i % 10000)); err != nil {
			b.Fatal(err)
		}
	}
}
