package trajectory

import (
	"fmt"

	"rups/internal/stats"
)

// Chunked power storage: the backing store behind Aware's power matrix.
//
// The matrix is split column-wise into fixed-size chunks of ChunkMarks
// metre columns each; within a chunk the cells are channel-major
// (vals[ch*ChunkMarks+col]), so one chunk holds a width×ChunkMarks tile.
// Only the last chunk ever grows — everything before it is structurally
// complete — which is what makes snapshot interning possible: Snapshot
// copies the chunk-*pointer* slice and raises each covered chunk's shared
// watermark instead of deep-copying cell storage.
//
// The sharing contract, enforced cell-by-cell through the watermark:
//
//   - columns below a chunk's shared watermark are visible to at least one
//     snapshot and therefore immutable in place — an in-place write
//     (SetPower, Interpolate) first privatizes the chunk with a
//     copy-on-write clone, so snapshots keep reading the sealed cells;
//   - columns at or above the watermark belong to the live head — Append
//     writes them directly, and that is race-free against snapshot readers
//     because the two touch disjoint cells of the shared tile.
//
// Watermarks are plain ints: Snapshot and every mutation must run on the
// goroutine that owns the trajectory (the same quiescence rule the engine's
// Admit has always demanded); only *reads* of snapshotted storage may be
// concurrent.
const (
	// ChunkMarks is the column count of one power chunk (power of two so
	// the column→chunk split is a shift and a mask).
	ChunkMarks = 128
	chunkShift = 7
	chunkMask  = ChunkMarks - 1
)

// powChunk is one sealed-or-growing width×ChunkMarks tile.
type powChunk struct {
	vals []float64 // width × ChunkMarks, channel-major
	// shared is the watermark: columns [0, shared) are referenced by a
	// snapshot and must not be rewritten in place.
	shared int
}

// newPowChunk allocates a tile with every cell missing, so columns beyond
// the live length always read as unscanned no matter how they were grown.
func newPowChunk(width int) *powChunk {
	c := &powChunk{vals: make([]float64, width*ChunkMarks)}
	for i := range c.vals {
		c.vals[i] = stats.Missing
	}
	return c
}

// powStore is a trajectory's power matrix: width channel rows over the
// global columns [off, off+n). off is nonzero only for Tail views, which
// re-base local column 0 without copying chunk storage.
type powStore struct {
	width  int
	chunks []*powChunk
	off    int // global column of local column 0
	n      int // local column count
	// view marks storage borrowed from another trajectory (Tail/PrefixUntil
	// views, snapshots): mutators panic instead of corrupting the owner.
	view bool
}

// newPowStore allocates an owned all-missing store for n columns.
func newPowStore(width, n int) powStore {
	ps := powStore{width: width}
	for cols := 0; cols < n; cols += ChunkMarks {
		ps.chunks = append(ps.chunks, newPowChunk(width))
	}
	ps.n = n
	return ps
}

// at reads channel ch at local column i. Bounds are the caller's problem.
func (p *powStore) at(ch, i int) float64 {
	g := p.off + i
	return p.chunks[g>>chunkShift].vals[ch*ChunkMarks+g&chunkMask]
}

// ensureOwned returns chunk ci, privatized with a copy-on-write clone first
// when column col of it sits below the shared watermark. The clone replaces
// the pointer in p.chunks, so views sharing the pointer-slice backing keep
// seeing live writes (the documented view semantics) while snapshots, which
// hold their own pointer slice, keep the sealed cells.
func (p *powStore) ensureOwned(ci, col int) *powChunk {
	c := p.chunks[ci]
	if col < c.shared {
		clone := &powChunk{vals: append([]float64(nil), c.vals...)}
		p.chunks[ci] = clone
		return clone
	}
	return c
}

// set writes channel ch at local column i (copy-on-write below watermarks).
func (p *powStore) set(ch, i int, v float64) {
	p.mutable()
	g := p.off + i
	c := p.ensureOwned(g>>chunkShift, g&chunkMask)
	c.vals[ch*ChunkMarks+g&chunkMask] = v
}

// mutable panics when the store is a borrowed view.
func (p *powStore) mutable() {
	if p.view {
		panic("trajectory: mutating a view (Tail/PrefixUntil/Snapshot); Clone first")
	}
}

// appendCol extends the store by one column holding power (len must equal
// width). New columns land at or above every watermark, so appending races
// neither snapshot readers nor earlier sealed cells.
func (p *powStore) appendCol(power []float64) {
	p.mutable()
	g := p.off + p.n
	ci := g >> chunkShift
	if ci == len(p.chunks) {
		p.chunks = append(p.chunks, newPowChunk(p.width))
	}
	c := p.chunks[ci]
	col := g & chunkMask
	for ch := 0; ch < p.width; ch++ {
		c.vals[ch*ChunkMarks+col] = power[ch]
	}
	p.n++
}

// rowSegs calls fn with the contiguous storage pieces of row ch covering
// local columns [lo, hi), in order. fn receives each piece and the local
// column of its first element.
func (p *powStore) rowSegs(ch, lo, hi int, fn func(seg []float64, base int)) {
	for i := lo; i < hi; {
		g := p.off + i
		ci, col := g>>chunkShift, g&chunkMask
		end := col + (hi - i)
		if end > ChunkMarks {
			end = ChunkMarks
		}
		row := p.chunks[ci].vals[ch*ChunkMarks+col : ch*ChunkMarks+end]
		fn(row, i)
		i += end - col
	}
}

// rowMeans fills ms[ch] (len(ms) == width) with each channel's mean over
// the local columns, skipping missing cells — stats.MeanOK per row, bit for
// bit. Each row's sum is one serial chain in column order, as MeanOK adds
// it; four rows are summed side by side within every channel-major tile so
// the four chains' add latencies overlap. When the width is not a multiple
// of four the last group repeats its final row in the spare lanes, which
// then compute (and store) exactly that row's values.
func (p *powStore) rowMeans(ms []chMean) {
	w := p.width
	for ch := range ms {
		ms[ch] = chMean{ch: ch} // mean accumulates the sum until the end
	}
	for i := 0; i < p.n; {
		g := p.off + i
		ci, col := g>>chunkShift, g&chunkMask
		end := min(col+(p.n-i), ChunkMarks)
		vals := p.chunks[ci].vals
		for c0 := 0; c0 < w; c0 += 4 {
			c1, c2, c3 := min(c0+1, w-1), min(c0+2, w-1), min(c0+3, w-1)
			r0 := vals[c0*ChunkMarks+col : c0*ChunkMarks+end]
			r1 := vals[c1*ChunkMarks+col : c1*ChunkMarks+end][:len(r0)]
			r2 := vals[c2*ChunkMarks+col : c2*ChunkMarks+end][:len(r0)]
			r3 := vals[c3*ChunkMarks+col : c3*ChunkMarks+end][:len(r0)]
			s0, s1, s2, s3 := ms[c0].mean, ms[c1].mean, ms[c2].mean, ms[c3].mean
			n0, n1, n2, n3 := ms[c0].n, ms[c1].n, ms[c2].n, ms[c3].n
			for u, v0 := range r0 {
				if !stats.IsMissing(v0) {
					s0 += v0
					n0++
				}
				if v1 := r1[u]; !stats.IsMissing(v1) {
					s1 += v1
					n1++
				}
				if v2 := r2[u]; !stats.IsMissing(v2) {
					s2 += v2
					n2++
				}
				if v3 := r3[u]; !stats.IsMissing(v3) {
					s3 += v3
					n3++
				}
			}
			ms[c0].mean, ms[c1].mean, ms[c2].mean, ms[c3].mean = s0, s1, s2, s3
			ms[c0].n, ms[c1].n, ms[c2].n, ms[c3].n = n0, n1, n2, n3
		}
		i += end - col
	}
	for ch := range ms {
		if ms[ch].n > 0 {
			ms[ch].mean /= float64(ms[ch].n)
		}
	}
}

// copyRow copies local columns [lo, lo+len(dst)) of row ch into dst.
func (p *powStore) copyRow(ch, lo int, dst []float64) {
	p.rowSegs(ch, lo, lo+len(dst), func(seg []float64, base int) {
		copy(dst[base-lo:], seg)
	})
}

// setRow writes vals into local columns [lo, lo+len(vals)) of row ch,
// privatizing shared chunks as it goes.
func (p *powStore) setRow(ch, lo int, vals []float64) {
	p.mutable()
	for i := 0; i < len(vals); {
		g := p.off + lo + i
		ci, col := g>>chunkShift, g&chunkMask
		end := col + (len(vals) - i)
		if end > ChunkMarks {
			end = ChunkMarks
		}
		c := p.ensureOwned(ci, col)
		copy(c.vals[ch*ChunkMarks+col:ch*ChunkMarks+end], vals[i:])
		i += end - col
	}
}

// viewOf returns a store over local columns [lo, hi) sharing chunk storage
// (and, crucially, the chunk-pointer slice backing) with p.
func (p *powStore) viewOf(lo, hi int) powStore {
	return powStore{width: p.width, chunks: p.chunks, off: p.off + lo, n: hi - lo, view: true}
}

// snapshot seals the covered columns and returns an interned copy: the
// chunk pointers are copied into a fresh slice (so later copy-on-write
// swaps in the live store never reach the snapshot) and each covered
// chunk's watermark is raised over the snapshot's columns. No cell storage
// is copied. It returns how many cells were shared versus how many words
// the snapshot had to allocate (the pointer slice), for telemetry.
//
// Chunks entirely below p.off (possible for Tail/PrefixUntil views) are
// neither referenced nor sealed — the snapshot cannot see them, and
// raising their watermark would only force needless copy-on-write clones
// on later in-place rewrites of early columns. Within the first covered
// chunk the watermark is a prefix, so columns below p.off in that one
// chunk are still sealed alongside the covered ones.
func (p *powStore) snapshot() (powStore, int) {
	if p.n == 0 {
		return powStore{width: p.width, view: true}, 0
	}
	first := p.off >> chunkShift
	last := (p.off + p.n - 1) >> chunkShift
	chunks := append([]*powChunk(nil), p.chunks[first:last+1]...)
	for ci := first; ci <= last; ci++ {
		hi := p.off + p.n - ci*ChunkMarks
		if hi > ChunkMarks {
			hi = ChunkMarks
		}
		if c := p.chunks[ci]; hi > c.shared {
			c.shared = hi
		}
	}
	return powStore{width: p.width, chunks: chunks, off: p.off - first*ChunkMarks, n: p.n, view: true}, len(chunks)
}

// clone deep-copies the covered columns into a fresh, owned, re-based
// store.
func (p *powStore) clone() powStore {
	out := newPowStore(p.width, p.n)
	for ch := 0; ch < p.width; ch++ {
		p.rowSegs(ch, 0, p.n, func(seg []float64, base int) {
			out.setRow(ch, base, seg)
		})
	}
	return out
}

// checkCell panics when (ch, i) is outside the matrix.
func (p *powStore) checkCell(ch, i int) {
	if ch < 0 || ch >= p.width || i < 0 || i >= p.n {
		panic(fmt.Sprintf("trajectory: cell (%d,%d) out of range %d×%d", ch, i, p.width, p.n))
	}
}
