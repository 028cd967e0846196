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

// recordPos reads the coordinates of a record slotRecord has accepted.
func recordPos(buf []byte) geom.Point {
	return geom.Point{
		X: math.Float64frombits(binary.LittleEndian.Uint64(buf[8:16])),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(buf[16:24])),
	}
}

// decodeRecord parses a record slotRecord has accepted. The returned
// record's Payload is a fresh copy, safe to retain.
func decodeRecord(buf []byte) PointRecord {
	r := PointRecord{ID: int64(binary.LittleEndian.Uint64(buf[0:8])), Pos: recordPos(buf)}
	if m := int(binary.LittleEndian.Uint16(buf[24:recordFixedLen])); m > 0 {
		r.Payload = append([]byte(nil), buf[recordFixedLen:recordFixedLen+m]...)
	}
	return r
}
