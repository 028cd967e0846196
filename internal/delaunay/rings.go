package delaunay

// Rings is a triangulation's Voronoi adjacency as a table of fixed-size CSR
// chunks. Chunk k holds sites [kC, (k+1)C), for C = ChunkSites, as one
// []int32: C+1 offsets relative to the chunk's start, then those sites'
// rings, each counterclockwise. Offset i is where the ring of site kC+i
// begins and offset i+1 where it ends, so the offsets start at C+1, never
// decrease, and end at the chunk's length; in the last chunk every offset
// past its last site is that length.
//
// A chunk is never written once its table is returned. That is what lets
// the epochs of a growing triangulation share them (Adjacency): a publish
// copies the table, n/C slice headers, rebuilds only the chunks that hold a
// ring its inserts changed, and shares every other chunk with the epoch
// before — path copying on a tree of depth one (Driscoll, Sarnak, Sleator
// and Tarjan, "Making data structures persistent", 1989). A static layer's
// chunks lie end to end in one array (Bulk), so its rings are as dense as a
// flat CSR's: one offset and one slice header more per chunk.
type Rings [][]int32

// chunkShift is log2 of ChunkSites, chosen by measurement on a 2-core Xeon
// @ 2.1 GHz. A one-insert publish over 50k uniform sites
// (BenchmarkPublish in package core) rebuilds the new site's chunk and
// those of its ≈ 6 neighbors, whose ids are spread over the whole range: at
// 128 sites a chunk it takes ≈ 18 µs and allocates 37 KB, at 256 ≈ 21 µs
// and 58 KB, at 1024 ≈ 46 µs and 192 KB. Queries read a ring through the
// same table lookup at any size, and BenchmarkLayoutHilbertVoronoi (100k
// Hilbert-ordered sites) reads the same at all three within its noise. 256
// keeps the table half as long as 128 does (≈ 230 headers at 58k sites,
// ≈ 0.1 B a site) for a publish ≈ 3 µs slower.
const chunkShift = 8

// ChunkSites is the number of sites a chunk of Rings holds.
const ChunkSites = 1 << chunkShift

// Ring returns the neighbors of site v, counterclockwise, in place: the
// caller must not modify them.
func (r Rings) Ring(v int32) []int32 {
	b := r[v>>chunkShift]
	i := v & (ChunkSites - 1)
	return b[b[i]:b[i+1]]
}

// chunks returns the number of chunks that hold n sites.
func chunks(n int) int { return (n + ChunkSites - 1) >> chunkShift }

// appendChunk appends to b the chunk of sites [lo, hi), which holds at most
// ChunkSites sites: its offsets, relative to len(b) on entry, then each
// site's ring. It is the one way a chunk is built. The ring of a site below
// keep that walked (ascending) does not list is copied from old, the chunk
// that held the same sites before, in one run with the sites after it up to
// the next such site; every other ring is the one walk appends.
func appendChunk(b []int32, lo, hi int, walk func(v int, b []int32) []int32, old []int32, keep int, walked []int32) []int32 {
	base := len(b)
	b = append(b, make([]int32, ChunkSites+1)...)
	for v := lo; v < hi; {
		if v >= keep || len(walked) > 0 && int(walked[0]) == v {
			if v < keep {
				walked = walked[1:]
			}
			b[base+v-lo] = int32(len(b) - base)
			b = walk(v, b)
			v++
			continue
		}
		end := min(hi, keep)
		if len(walked) > 0 {
			end = int(walked[0])
		}
		// The rings of v..end-1 are old's: one copy, offsets shifted by one
		// constant.
		i, j := v-lo, end-lo
		shift := int32(len(b)-base) - old[i]
		b = append(b, old[old[i]:old[j]]...)
		for u := i; u < j; u++ {
			b[base+u] = old[u] + shift
		}
		v = end
	}
	for i := hi - lo; i <= ChunkSites; i++ {
		b[base+i] = int32(len(b) - base)
	}
	return b
}
