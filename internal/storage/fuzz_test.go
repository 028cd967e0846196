package storage

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzStoreCorruption flips bits of one byte of one page of a small fixed
// store and reads every record back cold, through Get, through GetPosition
// alone and, twice, through one pin record (the second pass reads the pages
// still resident in place). A read returns either the record that was
// stored or an error wrapping ErrCorrupt — never a different value, never a
// panic — and an empty mask changes nothing. A flipped page is never pinned, so every
// record on it keeps failing, and every other page is pinned by its first
// read.
func FuzzStoreCorruption(f *testing.F) {
	const records = 60
	build := func(t *testing.T) *Store {
		b := NewBuilder(Options{PageSize: 256, PoolPages: 4})
		for id := int64(0); id < records; id++ {
			if err := b.Append(sampleRecord(id)); err != nil {
				t.Fatal(err)
			}
		}
		st, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	f.Add(uint16(0), uint16(0), byte(0))
	f.Add(uint16(0), uint16(1), byte(0xFF))   // slot count, high byte
	f.Add(uint16(2), uint16(6), byte(0x01))   // a slot's length
	f.Add(uint16(5), uint16(255), byte(0x80)) // the last byte of a page
	f.Fuzz(func(t *testing.T, page, offset uint16, mask byte) {
		st := build(t)
		p := uint32(page) % uint32(st.NumPages())
		st.pages[p][int(offset)%len(st.pages[p])] ^= mask
		st.DropCache()
		const gen = 1
		pins := make([]uint64, st.NumPages())
		for pass := 0; pass < 2; pass++ {
			for id := int64(0); id < records; id++ {
				want := sampleRecord(id)
				rec, err := st.Get(id)
				pos, posErr := st.GetPosition(id, nil, 0, nil)
				pinned, pinErr := st.GetPosition(id, pins, gen, nil)
				if err == nil && posErr == nil && pinErr == nil {
					if !reflect.DeepEqual(rec, want) || pos != want.Pos || pinned != want.Pos {
						t.Fatalf("pass %d, id %d: Get = %+v, GetPosition = %v, pinned %v, stored %+v", pass, id, rec, pos, pinned, want)
					}
					continue
				}
				if mask == 0 {
					t.Fatalf("pass %d, id %d on an untouched store: Get err %v, GetPosition err %v, pinned err %v", pass, id, err, posErr, pinErr)
				}
				if !errors.Is(err, ErrCorrupt) || !errors.Is(posErr, ErrCorrupt) || !errors.Is(pinErr, ErrCorrupt) {
					t.Fatalf("pass %d, id %d: Get err %v, GetPosition err %v, pinned err %v; want all ErrCorrupt", pass, id, err, posErr, pinErr)
				}
			}
		}
		for q, stamp := range pins {
			if flipped := mask != 0 && uint32(q) == p; (stamp>>32 == gen) == flipped {
				t.Fatalf("page %d (flipped %v) stamped %d after reading every record", q, flipped, stamp)
			}
		}
	})
}
