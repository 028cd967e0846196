package storage

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzStoreCorruption flips bits of one byte of one page of a small fixed
// store and reads every record back cold. A read returns either the record
// that was stored or an error wrapping ErrCorrupt — never a different value,
// never a panic — and an empty mask changes nothing.
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
		for id := int64(0); id < records; id++ {
			want := sampleRecord(id)
			rec, err := st.Get(id)
			pos, posErr := st.GetPosition(id)
			if err == nil && posErr == nil {
				if !reflect.DeepEqual(rec, want) || pos != want.Pos {
					t.Fatalf("id %d: Get = %+v, GetPosition = %v, stored %+v", id, rec, pos, want)
				}
				continue
			}
			if mask == 0 {
				t.Fatalf("id %d on an untouched store: Get err %v, GetPosition err %v", id, err, posErr)
			}
			if !errors.Is(err, ErrCorrupt) || !errors.Is(posErr, ErrCorrupt) {
				t.Fatalf("id %d: Get err %v, GetPosition err %v; want both ErrCorrupt", id, err, posErr)
			}
		}
	})
}
