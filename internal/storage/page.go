// Package storage implements the paged object store behind the area-query
// engine.
//
// The paper frames the area query as IO-bound: the refinement step must
// load each candidate's full geometry from the database before validating
// it. This package supplies that database: a heap file of fixed-size pages
// holding point records — id, coordinates and an application payload, laid
// out in whatever order the builder is fed (the engine feeds it along a
// Hilbert curve, so the records a query reads share pages; the adjacency, as
// in a VoR-tree, Sharifzadeh & Shahabi, VLDB 2010, stays with the resident
// index and is not stored here). A record is read out of the store's own
// page after its page is fetched through an LRU buffer pool that holds no
// bytes: it keeps which pages are resident and counts page reads, so both
// area-query methods can report how much IO their candidate sets cost, and
// it checks every page it reads against a checksum kept outside the page,
// so a page that changed after it was written is an ErrCorrupt, never a
// wrong answer. A query pins each page it has fetched
// (Store.GetPosition's pin record), so the pool sees a page once per query
// however many of its records the query loads, unless the page leaves the
// pool in between: then it is asked for, and counted, again.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// DefaultPageSize is the page size used when a Builder is given a
// non-positive one. 4 KiB matches the usual OS/DBMS page.
const DefaultPageSize = 4096

// Errors returned by the store.
var (
	ErrNotFound       = errors.New("storage: record not found")
	ErrRecordTooLarge = errors.New("storage: record larger than page")
	ErrCorrupt        = errors.New("storage: corrupt page")
)

// RID is a record identifier: page number and slot within the page.
type RID struct {
	Page uint32
	Slot uint16
}

// Page layout (sealed):
//
//	[0:2)            uint16 slot count k
//	[2 : 2+6k)       slot directory: per slot, uint32 offset + uint16 length
//	[...]            record bytes
//
// The builder accumulates the page's records back to back in one arena,
// encoded in place, and serializes the whole page on seal; it is then
// empty again and builds the next page in the same arena.
type pageBuilder struct {
	size int
	data []byte   // the records' bytes, in slot order
	lens []uint16 // per slot, its record's length
}

const (
	pageHeaderLen = 2
	slotDirLen    = 6
)

func newPageBuilder(size int) *pageBuilder {
	return &pageBuilder{size: size}
}

// fits reports whether a record of n bytes fits in the page.
func (b *pageBuilder) fits(n int) bool {
	used := pageHeaderLen + slotDirLen*len(b.lens) + len(b.data)
	return used+slotDirLen+n <= b.size
}

// add appends a record, which the caller has found encodable, and returns
// its slot.
func (b *pageBuilder) add(rec *PointRecord) uint16 {
	n := len(b.data)
	b.data = rec.appendTo(b.data)
	b.lens = append(b.lens, uint16(len(b.data)-n))
	return uint16(len(b.lens) - 1)
}

func (b *pageBuilder) empty() bool { return len(b.lens) == 0 }

// seal serializes the page into a fresh buffer of exactly size bytes and
// empties the builder.
func (b *pageBuilder) seal() []byte {
	buf := make([]byte, b.size)
	binary.LittleEndian.PutUint16(buf[0:pageHeaderLen], uint16(len(b.lens)))
	off := pageHeaderLen + slotDirLen*len(b.lens)
	copy(buf[off:], b.data)
	for i, n := range b.lens {
		dir := pageHeaderLen + slotDirLen*i
		binary.LittleEndian.PutUint32(buf[dir:], uint32(off))
		binary.LittleEndian.PutUint16(buf[dir+4:], n)
		off += int(n)
	}
	b.data, b.lens = b.data[:0], b.lens[:0]
	return buf
}

// slotRecord returns the slot-th record of a sealed page with every framing
// check passed: the slot is in the page's directory, its entry and the
// bytes the entry names lie inside the page, and those bytes hold the
// record's fixed header and the whole payload the header declares. It is
// every check a record read makes below the page checksum, so what a reader
// copies out of the record afterwards (recordPos, decodeRecord) cannot
// fail. The bytes alias the heap page and are read-only; they must not
// leave the package undecoded.
//
//vaq:noalloc
func slotRecord(page []byte, slot uint16) ([]byte, error) {
	if len(page) < pageHeaderLen {
		return nil, ErrCorrupt
	}
	count := binary.LittleEndian.Uint16(page[0:pageHeaderLen])
	if slot >= count {
		//vaqvet:ignore noalloc cold failure path; the wrap allocates only on a corrupt directory
		return nil, fmt.Errorf("%w: slot %d of %d", ErrNotFound, slot, count)
	}
	dir := pageHeaderLen + slotDirLen*int(slot)
	if dir+slotDirLen > len(page) {
		return nil, ErrCorrupt
	}
	start := binary.LittleEndian.Uint32(page[dir:])
	end := start + uint32(binary.LittleEndian.Uint16(page[dir+4:]))
	if start > end || end > uint32(len(page)) {
		return nil, ErrCorrupt
	}
	rec := page[start:end]
	if len(rec) < recordFixedLen {
		//vaqvet:ignore noalloc cold failure path; the wrap allocates only on a corrupt page
		return nil, fmt.Errorf("%w: record truncated (%d bytes)", ErrCorrupt, len(rec))
	}
	if m := int(binary.LittleEndian.Uint16(rec[24:recordFixedLen])); len(rec) < recordFixedLen+m {
		//vaqvet:ignore noalloc cold failure path; the wrap allocates only on a corrupt page
		return nil, fmt.Errorf("%w: payload truncated", ErrCorrupt)
	}
	return rec, nil
}
