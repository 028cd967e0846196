package storage

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestDecodeNeverPanicsOnCorruption flips random bytes in encoded records
// and pages: decoding must either succeed or fail with an error — never
// panic or over-read. The position-only decode must reach the same verdict
// on every buffer (it skips the copies, not the checks) and the same
// coordinates.
func TestDecodeNeverPanicsOnCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rec := sampleRecord(7)
	clean, err := rec.encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5000; trial++ {
		buf := append([]byte(nil), clean...)
		// Corrupt 1-4 random bytes.
		for k := 0; k <= rng.Intn(4); k++ {
			buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
		}
		// Optionally truncate.
		if rng.Intn(3) == 0 {
			buf = buf[:rng.Intn(len(buf)+1)]
		}
		rec, err := decodeRecord(buf) // must not panic
		pos, posErr := decodePosition(buf)
		if (err == nil) != (posErr == nil) {
			t.Fatalf("trial %d: decodeRecord err %v, decodePosition err %v", trial, err, posErr)
		}
		// Compare bit patterns: a flipped byte can make a coordinate NaN.
		if err == nil && (math.Float64bits(pos.X) != math.Float64bits(rec.Pos.X) ||
			math.Float64bits(pos.Y) != math.Float64bits(rec.Pos.Y)) {
			t.Fatalf("trial %d: decodePosition %v, decodeRecord %v", trial, pos, rec.Pos)
		}
	}
}

// TestPageRecordNeverPanicsOnCorruption does the same at page level.
func TestPageRecordNeverPanicsOnCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := newPageBuilder(512)
	for i := int64(0); i < 8; i++ {
		rec := sampleRecord(i)
		if !b.fits(rec.encodedLen()) {
			break
		}
		b.add(&rec)
	}
	clean := b.seal()
	for trial := 0; trial < 5000; trial++ {
		page := append([]byte(nil), clean...)
		for k := 0; k <= rng.Intn(6); k++ {
			page[rng.Intn(len(page))] ^= byte(1 + rng.Intn(255))
		}
		for slot := uint16(0); slot < 12; slot++ {
			if raw, err := pageRecord(page, slot); err == nil {
				_, _ = decodeRecord(raw) // must not panic
			}
		}
	}
}

// TestPageRecordBadSlot covers out-of-range and corrupt-directory paths.
func TestPageRecordBadSlot(t *testing.T) {
	b := newPageBuilder(256)
	rec := sampleRecord(1)
	b.add(&rec)
	page := b.seal()
	if _, err := pageRecord(page, 1); err == nil {
		t.Error("out-of-range slot should fail")
	}
	if _, err := pageRecord(nil, 0); err == nil {
		t.Error("nil page should fail")
	}
}

// TestStoreDetectsFlippedByte flips the one bit of a stored coordinate that
// turns 0.5 into 1: the framing checks cannot see it (no length moved), the
// page checksum must. Every record of the page then fails with ErrCorrupt
// on both read paths, on every attempt — the page is never installed — and
// a record on another page reads as before.
func TestStoreDetectsFlippedByte(t *testing.T) {
	const victim = 17
	b := NewBuilder(Options{PageSize: 256, PoolPages: 4})
	for id := int64(0); id < 60; id++ {
		rec := sampleRecord(id)
		if id == victim {
			rec.Pos = geom.Pt(0.5, 1)
		}
		if err := b.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if pos, err := st.GetPosition(victim, nil, 0, nil); err != nil || pos != geom.Pt(0.5, 1) {
		t.Fatalf("before the flip: GetPosition = %v, %v", pos, err)
	}

	bad := st.RIDOf(victim).Page
	st.FlipXBit52(victim)
	st.DropCache()

	if pos, err := st.GetPosition(victim, nil, 0, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("after the flip: GetPosition = %v, %v for a stored (0.5, 1); want ErrCorrupt", pos, err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		for id := int64(0); id < int64(st.Len()); id++ {
			rec, err := st.Get(id)
			pos, posErr := st.GetPosition(id, nil, 0, nil)
			if st.RIDOf(id).Page == bad {
				if !errors.Is(err, ErrCorrupt) || !errors.Is(posErr, ErrCorrupt) {
					t.Fatalf("attempt %d, id %d on the corrupt page: Get = %v, %v; GetPosition = %v, %v; want ErrCorrupt",
						attempt, id, rec.Pos, err, pos, posErr)
				}
				continue
			}
			if want := sampleRecord(id).Pos; err != nil || posErr != nil || rec.Pos != want || pos != want {
				t.Fatalf("id %d on a sound page: Get = %v, %v; GetPosition = %v, %v", id, rec.Pos, err, pos, posErr)
			}
		}
	}
	// A refused read delivered no page: the counters saw only sound ones.
	if io := st.Stats(); io.BytesRead != int64(io.PageReads)*256 {
		t.Errorf("BytesRead %d != PageReads %d × 256", io.BytesRead, io.PageReads)
	}
}
