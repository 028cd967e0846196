package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
)

// PointRecord is the stored representation of a spatial object: its
// identifier, coordinates, the identifiers of its Voronoi neighbors
// (VoR-tree layout, so neighbor expansion is one record fetch), and an
// opaque application payload (attributes) that gives records realistic
// width.
type PointRecord struct {
	ID        int64
	Pos       geom.Point
	Neighbors []int64
	Payload   []byte
}

// record encoding (little endian):
//
//	int64   ID
//	float64 X, float64 Y
//	uint16  neighbor count n
//	int64   × n neighbors
//	uint16  payload length m
//	byte    × m payload
const recordFixedLen = 8 + 8 + 8 + 2 + 2

// encodedLen returns the encoded size of r in bytes.
func (r *PointRecord) encodedLen() int {
	return recordFixedLen + 8*len(r.Neighbors) + len(r.Payload)
}

// checkEncodable reports whether r's neighbor list and payload fit the
// uint16 counts the encoding gives them.
func (r *PointRecord) checkEncodable() error {
	if len(r.Neighbors) > math.MaxUint16 {
		return fmt.Errorf("storage: record %d has %d neighbors, max %d",
			r.ID, len(r.Neighbors), math.MaxUint16)
	}
	if len(r.Payload) > math.MaxUint16 {
		return fmt.Errorf("storage: record %d payload %d bytes, max %d",
			r.ID, len(r.Payload), math.MaxUint16)
	}
	return nil
}

// encode appends the record to dst and returns the extended slice.
func (r *PointRecord) encode(dst []byte) ([]byte, error) {
	if err := r.checkEncodable(); err != nil {
		return nil, err
	}
	return r.appendTo(dst), nil
}

// appendTo is encode for a record checkEncodable has accepted.
func (r *PointRecord) appendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.ID))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Pos.X))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Pos.Y))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Neighbors)))
	for _, nb := range r.Neighbors {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(nb))
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Payload)))
	return append(dst, r.Payload...)
}

// recordLayout validates buf's framing — fixed header, neighbor list,
// payload length — and returns the neighbor count with the payload's offset
// and length. It is every truncation check a decode performs; decodeRecord
// and decodePosition differ only in what they copy out afterwards.
//
//vaq:noalloc
func recordLayout(buf []byte) (neighbors, payloadOff, payloadLen int, err error) {
	if len(buf) < recordFixedLen {
		//vaqvet:ignore noalloc cold failure path; the wrap allocates only on a corrupt page
		return 0, 0, 0, fmt.Errorf("%w: record truncated (%d bytes)", ErrCorrupt, len(buf))
	}
	n := int(binary.LittleEndian.Uint16(buf[24:26]))
	off := 26 + 8*n
	if len(buf) < off+2 {
		//vaqvet:ignore noalloc cold failure path; the wrap allocates only on a corrupt page
		return 0, 0, 0, fmt.Errorf("%w: neighbor list truncated", ErrCorrupt)
	}
	m := int(binary.LittleEndian.Uint16(buf[off:]))
	off += 2
	if len(buf) < off+m {
		//vaqvet:ignore noalloc cold failure path; the wrap allocates only on a corrupt page
		return 0, 0, 0, fmt.Errorf("%w: payload truncated", ErrCorrupt)
	}
	return n, off, m, nil
}

// recordPos reads the coordinates of a record recordLayout has accepted.
func recordPos(buf []byte) geom.Point {
	return geom.Point{
		X: math.Float64frombits(binary.LittleEndian.Uint64(buf[8:16])),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(buf[16:24])),
	}
}

// decodeRecord parses a record from buf. The returned record's Neighbors
// and Payload are fresh copies, safe to retain.
func decodeRecord(buf []byte) (PointRecord, error) {
	n, off, m, err := recordLayout(buf)
	if err != nil {
		return PointRecord{}, err
	}
	r := PointRecord{ID: int64(binary.LittleEndian.Uint64(buf[0:8])), Pos: recordPos(buf)}
	if n > 0 {
		r.Neighbors = make([]int64, n)
		for i := range r.Neighbors {
			r.Neighbors[i] = int64(binary.LittleEndian.Uint64(buf[26+8*i:]))
		}
	}
	if m > 0 {
		r.Payload = append([]byte(nil), buf[off:off+m]...)
	}
	return r, nil
}

// decodePosition is decodeRecord for a caller that wants the coordinates
// alone: the same framing checks over the whole record, no neighbor list or
// payload copied.
//
//vaq:noalloc
func decodePosition(buf []byte) (geom.Point, error) {
	if _, _, _, err := recordLayout(buf); err != nil {
		return geom.Point{}, err
	}
	return recordPos(buf), nil
}
