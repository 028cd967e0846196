package storage

import "encoding/binary"

// PageBytes returns page p of the heap file itself, not a copy.
func (s *Store) PageBytes(p uint32) []byte { return s.pages[p] }

// RIDOf returns where the directory places record id.
func (s *Store) RIDOf(id int64) RID { return s.dir[id] }

// FlipXBit52 simulates bit-rot under a built store: in the heap page that
// holds record id it flips bit 52 of the record's X coordinate (byte 6 of
// the little-endian float64 at record offset 8), the bit that separates 0.5
// from 1. No length moves, so no framing check can notice.
func (s *Store) FlipXBit52(id int64) {
	rid := s.dir[id]
	page := s.pages[rid.Page]
	start := binary.LittleEndian.Uint32(page[pageHeaderLen+slotDirLen*int(rid.Slot):])
	page[start+8+6] ^= 0x10
}

// encode appends the record to dst, refused when checkEncodable refuses it.
func (r *PointRecord) encode(dst []byte) ([]byte, error) {
	if err := r.checkEncodable(); err != nil {
		return nil, err
	}
	return r.appendTo(dst), nil
}
