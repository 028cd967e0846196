package storage

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestSealedPagesDigestPinned pins the heap file byte for byte: the page
// format is what every gated IO counter (records per page, page reads per
// query) rests on, so a change to how the builder assembles a page must
// leave the sealed bytes and the directory exactly as they were.
func TestSealedPagesDigestPinned(t *testing.T) {
	cases := []struct {
		pageSize, records int
		pages             int
		want              string
	}{
		{pageSize: 256, records: 100, pages: 24, want: "9f24766f9a2f8162f8d037e5aebc0bfdcbd57e5a73da7cc123f1c6268f7f56a2"},
		{pageSize: 512, records: 500, pages: 57, want: "31ae7788b3906d5d97783cbae3262d05e2025c1910a2eee2e295b003e2356019"},
		{pageSize: 4096, records: 3000, pages: 40, want: "0a4e9b1a5952c2621aadde1514540356f5ba66c45ebe6f751b7ed7a466f49fd0"},
	}
	for _, c := range cases {
		b := NewBuilder(Options{PageSize: c.pageSize, PoolPages: 2})
		for id := int64(0); id < int64(c.records); id++ {
			rec := sampleRecord(id)
			// Vary the record width so page boundaries fall unevenly.
			rec.Neighbors = rec.Neighbors[:id%4]
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
