package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
)

// PointRecord is the stored representation of a spatial object: its
// identifier, its coordinates — what the refinement step reads to validate a
// candidate — and an opaque application payload (attributes) that gives
// records realistic width. The Voronoi adjacency is not stored: the BFS
// reads it from the resident index, so neighbor ids in the record would be
// bytes every page read pays for and no query reads.
type PointRecord struct {
	ID      int64
	Pos     geom.Point
	Payload []byte
}

// record encoding (little endian):
//
//	int64   ID
//	float64 X, float64 Y
//	uint16  payload length m
//	byte    × m payload
const recordFixedLen = 8 + 8 + 8 + 2

// encodedLen returns the encoded size of r in bytes.
func (r *PointRecord) encodedLen() int {
	return recordFixedLen + len(r.Payload)
}

// checkEncodable reports whether r's payload fits the uint16 length the
// encoding gives it.
func (r *PointRecord) checkEncodable() error {
	if len(r.Payload) > math.MaxUint16 {
		return fmt.Errorf("storage: record %d payload %d bytes, max %d",
			r.ID, len(r.Payload), math.MaxUint16)
	}
	return nil
}

// appendTo appends a record checkEncodable has accepted to dst and returns
// the extended slice.
func (r *PointRecord) appendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.ID))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Pos.X))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Pos.Y))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Payload)))
	return append(dst, r.Payload...)
}

// recordLayout validates buf's framing — fixed header, payload — and returns
// the payload's length, which starts at recordFixedLen. It is every
// truncation check a decode performs; decodeRecord and decodePosition differ
// only in what they copy out afterwards.
//
//vaq:noalloc
func recordLayout(buf []byte) (payloadLen int, err error) {
	if len(buf) < recordFixedLen {
		//vaqvet:ignore noalloc cold failure path; the wrap allocates only on a corrupt page
		return 0, fmt.Errorf("%w: record truncated (%d bytes)", ErrCorrupt, len(buf))
	}
	m := int(binary.LittleEndian.Uint16(buf[24:recordFixedLen]))
	if len(buf) < recordFixedLen+m {
		//vaqvet:ignore noalloc cold failure path; the wrap allocates only on a corrupt page
		return 0, fmt.Errorf("%w: payload truncated", ErrCorrupt)
	}
	return m, nil
}

// recordPos reads the coordinates of a record recordLayout has accepted.
func recordPos(buf []byte) geom.Point {
	return geom.Point{
		X: math.Float64frombits(binary.LittleEndian.Uint64(buf[8:16])),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(buf[16:24])),
	}
}

// decodeRecord parses a record from buf. The returned record's Payload is a
// fresh copy, safe to retain.
func decodeRecord(buf []byte) (PointRecord, error) {
	m, err := recordLayout(buf)
	if err != nil {
		return PointRecord{}, err
	}
	r := PointRecord{ID: int64(binary.LittleEndian.Uint64(buf[0:8])), Pos: recordPos(buf)}
	if m > 0 {
		r.Payload = append([]byte(nil), buf[recordFixedLen:recordFixedLen+m]...)
	}
	return r, nil
}

// decodePosition is decodeRecord for a caller that wants the coordinates
// alone: the same framing checks over the whole record, no payload copied.
//
//vaq:noalloc
func decodePosition(buf []byte) (geom.Point, error) {
	if _, err := recordLayout(buf); err != nil {
		return geom.Point{}, err
	}
	return recordPos(buf), nil
}
