package storage

import (
	"math"
	"math/rand"
	"testing"
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
		raw, err := rec.encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !b.fits(len(raw)) {
			break
		}
		b.add(raw)
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
	raw, err := rec.encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	b.add(raw)
	page := b.seal()
	if _, err := pageRecord(page, 1); err == nil {
		t.Error("out-of-range slot should fail")
	}
	if _, err := pageRecord(nil, 0); err == nil {
		t.Error("nil page should fail")
	}
}
