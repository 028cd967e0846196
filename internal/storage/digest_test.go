package storage

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestSealedPagesDigestPinned pins the heap file byte for byte: the record
// and page formats are what every gated IO counter (records per page, page
// reads per query) rests on, so a change to how the builder assembles a
// page must leave the sealed bytes and the directory exactly as they were.
func TestSealedPagesDigestPinned(t *testing.T) {
	cases := []struct {
		pageSize, records int
		pages             int
		want              string
	}{
		{pageSize: 256, records: 100, pages: 17, want: "3c8685b891081c41b3c7d0f243a55aa0bffad764e1bd2ec61aac39727a183e68"},
		{pageSize: 512, records: 500, pages: 41, want: "5a7086fcaa8f971fd47b95fea496afd4cb009692d9256996fe9bbe74cce88326"},
		{pageSize: 4096, records: 3000, pages: 30, want: "8000aff6607bd1d711263fbd46dfa0410e3fe97c3b94779828017e28899fd8e7"},
	}
	for _, c := range cases {
		b := NewBuilder(Options{PageSize: c.pageSize, PoolPages: 2})
		for k := int64(0); k < int64(c.records); k++ {
			// Ids arrive out of order (37 is prime to every record count), so
			// the directory is pinned as filled by id, not by arrival.
			id := k * 37 % int64(c.records)
			rec := sampleRecord(id)
			// Vary the record width so page boundaries fall unevenly.
			rec.Payload = rec.Payload[:id%17]
			if err := b.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		st, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for p := 0; p < st.NumPages(); p++ {
			h.Write(st.PageBytes(uint32(p)))
		}
		for id := int64(0); id < int64(st.Len()); id++ {
			rid := st.RIDOf(id)
			h.Write(binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint32(nil, rid.Page), rid.Slot))
		}
		got := hex.EncodeToString(h.Sum(nil))
		if st.NumPages() != c.pages || got != c.want {
			t.Errorf("page size %d, %d records: %d pages, digest %s; want %d pages, digest %s",
				c.pageSize, c.records, st.NumPages(), got, c.pages, c.want)
		}
	}
}

// TestStoreBuildAllocs pins what a build allocates: a buffer per sealed
// page and the amortized growth of the page list, the checksum table and
// the directory — nothing per record, since Append encodes into the page
// under construction.
func TestStoreBuildAllocs(t *testing.T) {
	recs := make([]PointRecord, 3000)
	for i := range recs {
		recs[i] = sampleRecord(int64(i))
	}
	var pages int
	allocs := testing.AllocsPerRun(5, func() {
		b := NewBuilder(Options{PageSize: 4096, PoolPages: 8})
		for i := range recs {
			if err := b.Append(recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		st, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		pages = st.NumPages()
	})
	if limit := float64(pages + 64); allocs > limit {
		t.Errorf("building %d records into %d pages allocates %.0f times, want at most %.0f", len(recs), pages, allocs, limit)
	}
}
