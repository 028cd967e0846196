package storage

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestDecodeNeverPanicsOnCorruption flips random bytes of a record on its
// page and, now and then, shortens its slot: the framing checks either
// refuse the record or accept bytes that decode without panicking or
// reading past the record, and the position read alone matches the full
// decode's.
func TestDecodeNeverPanicsOnCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rec := sampleRecord(7)
	clean := onePage(t, rec)
	start := int(binary.LittleEndian.Uint32(clean[pageHeaderLen:]))
	for trial := 0; trial < 5000; trial++ {
		page := append([]byte(nil), clean...)
		// Corrupt 1-4 random bytes of the record.
		for k := 0; k <= rng.Intn(4); k++ {
			page[start+rng.Intn(rec.encodedLen())] ^= byte(1 + rng.Intn(255))
		}
		// Optionally truncate.
		if rng.Intn(3) == 0 {
			binary.LittleEndian.PutUint16(page[pageHeaderLen+4:], uint16(rng.Intn(rec.encodedLen()+1)))
		}
		buf, err := slotRecord(page, 0)
		if err != nil {
			continue
		}
		got := decodeRecord(buf) // must not panic
		pos := recordPos(buf)
		// Compare bit patterns: a flipped byte can make a coordinate NaN.
		if math.Float64bits(pos.X) != math.Float64bits(got.Pos.X) ||
			math.Float64bits(pos.Y) != math.Float64bits(got.Pos.Y) {
			t.Fatalf("trial %d: recordPos %v, decodeRecord %v", trial, pos, got.Pos)
		}
		if len(got.Payload) > len(buf)-recordFixedLen {
			t.Fatalf("trial %d: a %d-byte payload out of a %d-byte record", trial, len(got.Payload), len(buf))
		}
	}
}

// TestPageRecordNeverPanicsOnCorruption does the same at page level: the
// slot directory and the records are corrupted alike.
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
			if raw, err := slotRecord(page, slot); err == nil {
				_ = decodeRecord(raw) // must not panic
			}
		}
	}
}

// TestPageRecordBadSlot covers out-of-range and corrupt-directory paths.
func TestPageRecordBadSlot(t *testing.T) {
	page := onePage(t, sampleRecord(1))
	if _, err := slotRecord(page, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("out-of-range slot: err %v, want ErrNotFound", err)
	}
	if _, err := slotRecord(nil, 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("nil page: err %v, want ErrCorrupt", err)
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
