package trajectory

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"rups/internal/gsm"
	"rups/internal/stats"
)

// Power cells. Every power cell is stored as one byte: the reading rounded
// to a whole dB above gsm.NoiseFloorDBm, clamped to [0, 254], with
// MissingCell for an unscanned channel. That is the 1 dB resolution GSM
// receivers report and the paper's one byte per channel-metre (§V-B). A
// cell is rounded exactly once, when it is written (SetPower, Append,
// AppendColumns, Bind, Interpolate); reads return the cell's
// dBm exactly, so rewriting a cell with what was read from it is a no-op
// and every byte codec carrying cells (the wire format, the reliable-sync
// chunks) is lossless.
const (
	// CellBytes is the storage size of one power cell.
	CellBytes = 1
	// MissingCell is the cell byte of a missing (unscanned) channel.
	MissingCell = 0xFF
	// floorDB is the noise floor as an integer dB (a compile-time check
	// that the floor is a whole dB, which rowMeans' exact sums rely on).
	floorDB = int(gsm.NoiseFloorDBm)
)

// CellByte quantizes an RSSI in dBm to its power cell: the whole dB above
// the noise floor nearest to it, clamped to [0, 254], or MissingCell for
// stats.Missing. It is the one dBm→cell mapping: storage, the trajectory
// wire format and the V2V codecs all round through it.
func CellByte(dBm float64) uint8 {
	if stats.IsMissing(dBm) {
		return MissingCell
	}
	q := math.Round(gsm.Excess(dBm))
	if q < 0 {
		q = 0
	}
	if q > MissingCell-1 {
		q = MissingCell - 1
	}
	return uint8(q)
}

// CellDBm returns the RSSI in dBm a power cell holds (stats.Missing for
// MissingCell). CellByte(CellDBm(b)) == b for every byte b.
func CellDBm(b uint8) float64 { return cellDBm[b] }

// cellDBm tabulates CellDBm: the hot row copies decode through it.
var cellDBm = func() (t [256]float64) {
	for b := range t {
		t[b] = gsm.NoiseFloorDBm + float64(b)
	}
	t[MissingCell] = stats.Missing
	return t
}()

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

// powChunk is one sealed-or-growing width×ChunkMarks tile of cells (see
// CellByte): one byte per channel-metre.
type powChunk struct {
	vals []uint8 // width × ChunkMarks, channel-major
	// shared is the watermark: columns [0, shared) are referenced by a
	// snapshot and must not be rewritten in place.
	shared int
	// tally holds each channel's present-cell sum and count over the whole
	// tile, set by the snapshot that first seals all ChunkMarks columns
	// (seal) and nil before. A sealed tile's cells never change in place,
	// so the tally never goes stale: an in-place write clones the tile,
	// and the clone starts without one. Readers consult it only for tiles
	// they cover whole — any such snapshot sealed the tile, and so set
	// the tally, before it was published.
	tally []cellTally
}

// cellTally is one channel's present cells in a sealed tile: their byte
// sum and how many there are (n < ChunkMarks means some cell is missing).
type cellTally struct{ sum, n uint16 }

// TallyBytes is the resident size of one channel's tally in a sealed
// chunk: a chunk of ChunkMarks marks adds TallyBytes per channel once a
// snapshot seals it whole.
const TallyBytes = 4

// A tile row's byte sum fits a cellTally (a compile-time check).
const _ = uint16(ChunkMarks * (MissingCell - 1))

// seal tallies every channel of a fully sealed tile.
func (c *powChunk) seal(width int) {
	c.tally = make([]cellTally, width)
	for ch := range c.tally {
		sum, n := cellSum(c.vals[ch*ChunkMarks : (ch+1)*ChunkMarks])
		c.tally[ch] = cellTally{uint16(sum), uint16(n)}
	}
}

// whole returns chunk ci's tally when the piece [col, end) covers the whole
// tile and the tile is sealed, else nil.
func (p *powStore) whole(ci, col, end int) []cellTally {
	if col == 0 && end == ChunkMarks {
		return p.chunks[ci].tally
	}
	return nil
}

// newPowChunk allocates a tile with every cell missing, so columns beyond
// the live length always read as unscanned no matter how they were grown.
func newPowChunk(width int) *powChunk {
	c := &powChunk{vals: make([]uint8, width*ChunkMarks)}
	for i := range c.vals {
		c.vals[i] = MissingCell
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
	return CellDBm(p.chunks[g>>chunkShift].vals[ch*ChunkMarks+g&chunkMask])
}

// ensureOwned returns chunk ci, privatized with a copy-on-write clone first
// when column col of it sits below the shared watermark. The clone replaces
// the pointer in p.chunks, so views sharing the pointer-slice backing keep
// seeing live writes (the documented view semantics) while snapshots, which
// hold their own pointer slice, keep the sealed cells.
func (p *powStore) ensureOwned(ci, col int) *powChunk {
	c := p.chunks[ci]
	if col < c.shared {
		clone := &powChunk{vals: append([]uint8(nil), c.vals...)}
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
	c.vals[ch*ChunkMarks+g&chunkMask] = CellByte(v)
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
		c.vals[ch*ChunkMarks+col] = CellByte(power[ch])
	}
	p.n++
}

// rowSegs calls fn with the contiguous storage pieces of row ch covering
// local columns [lo, hi), in order. fn receives each piece and the local
// column of its first element.
func (p *powStore) rowSegs(ch, lo, hi int, fn func(seg []uint8, base int)) {
	for i := lo; i < hi; {
		g := p.off + i
		ci, col := g>>chunkShift, g&chunkMask
		end := min(col+(hi-i), ChunkMarks)
		fn(p.chunks[ci].vals[ch*ChunkMarks+col:ch*ChunkMarks+end], i)
		i += end - col
	}
}

// ownedRowSegs is rowSegs for writing: each piece's chunk is privatized
// first when the piece starts below its shared watermark.
func (p *powStore) ownedRowSegs(ch, lo, hi int, fn func(seg []uint8, base int)) {
	p.mutable()
	for i := lo; i < hi; {
		g := p.off + i
		ci, col := g>>chunkShift, g&chunkMask
		end := min(col+(hi-i), ChunkMarks)
		fn(p.ensureOwned(ci, col).vals[ch*ChunkMarks+col:ch*ChunkMarks+end], i)
		i += end - col
	}
}

// rowMeans fills ms[ch] (len(ms) == width) with each channel's mean over
// the local columns, skipping missing cells — stats.MeanOK per row, bit for
// bit. A cell is the integer dB CellDBm(b) = floorDB + b, so every partial
// sum of MeanOK's float chain is an exact integer: summing the bytes as
// integers and converting once gives the same bits.
//
// A sealed tile the store covers whole contributes its tally (the same
// integers), so only the edge tiles and unsealed ones are read.
func (p *powStore) rowMeans(ms []chMean) {
	for ch := range ms {
		ms[ch] = chMean{ch: ch} // mean accumulates the byte sum until the end
	}
	for i := 0; i < p.n; {
		g := p.off + i
		ci, col := g>>chunkShift, g&chunkMask
		end := min(col+(p.n-i), ChunkMarks)
		if tally := p.whole(ci, col, end); tally != nil {
			for ch := range ms {
				ms[ch].mean += float64(tally[ch].sum) // integer-valued, so exact
				ms[ch].n += int(tally[ch].n)
			}
		} else {
			vals := p.chunks[ci].vals
			for ch := range ms {
				sum, n := cellSum(vals[ch*ChunkMarks+col : ch*ChunkMarks+end])
				ms[ch].mean += float64(sum) // integer-valued, so exact
				ms[ch].n += n
			}
		}
		i += end - col
	}
	for ch := range ms {
		if n := ms[ch].n; n > 0 {
			ms[ch].mean = float64(int(ms[ch].mean)+floorDB*n) / float64(n)
		}
	}
}

// cellSum returns the sum of seg's present cell bytes and how many there
// are; len(seg) ≤ ChunkMarks. Eight cells are loaded as one word and added
// pairwise into four 16-bit lanes, which at most ChunkMarks/8 words
// (16 × 2 × 255 < 2¹⁶) cannot overflow. A segment holding any MissingCell
// is summed again byte by byte, skipping them.
func cellSum(seg []uint8) (sum, n int) {
	const (
		ones   = 0x0101010101010101
		highs  = 0x8080808080808080
		bytes2 = 0x00FF00FF00FF00FF
		lanes2 = 0x0000FFFF0000FFFF
	)
	var acc, missing uint64
	k := 0
	for ; k+8 <= len(seg); k += 8 {
		w := binary.LittleEndian.Uint64(seg[k:])
		missing |= (^w - ones) & w & highs // a high bit per 0xFF byte
		acc += w&bytes2 + w>>8&bytes2
	}
	for _, b := range seg[k:] {
		if b == MissingCell {
			missing = 1
		}
		sum += int(b)
	}
	if missing != 0 {
		sum = 0
		for _, b := range seg {
			if b != MissingCell {
				sum += int(b)
				n++
			}
		}
		return sum, n
	}
	acc = acc&lanes2 + acc>>16&lanes2
	return sum + int(acc&0xFFFFFFFF+acc>>32), len(seg)
}

// hasMissing reports whether any of the given channels holds a
// MissingCell over local columns [lo, hi). A sealed tile the range covers
// whole answers from its tally's counts.
func (p *powStore) hasMissing(channels []int, lo, hi int) bool {
	for i := lo; i < hi; {
		g := p.off + i
		ci, col := g>>chunkShift, g&chunkMask
		end := min(col+(hi-i), ChunkMarks)
		if tally := p.whole(ci, col, end); tally != nil {
			for _, ch := range channels {
				if tally[ch].n < ChunkMarks {
					return true
				}
			}
		} else {
			vals := p.chunks[ci].vals
			for _, ch := range channels {
				if bytes.IndexByte(vals[ch*ChunkMarks+col:ch*ChunkMarks+end], MissingCell) >= 0 {
					return true
				}
			}
		}
		i += end - col
	}
	return false
}

// copyRow copies local columns [lo, lo+len(dst)) of row ch into dst.
func (p *powStore) copyRow(ch, lo int, dst []float64) {
	p.rowSegs(ch, lo, lo+len(dst), func(seg []uint8, base int) {
		out := dst[base-lo:][:len(seg)]
		for k, b := range seg {
			out[k] = cellDBm[b]
		}
	})
}

// setRow writes vals (dBm) into local columns [lo, lo+len(vals)) of row
// ch, rounding each to its cell and privatizing shared chunks as it goes.
func (p *powStore) setRow(ch, lo int, vals []float64) {
	p.ownedRowSegs(ch, lo, lo+len(vals), func(seg []uint8, base int) {
		in := vals[base-lo:][:len(seg)]
		for k, v := range in {
			seg[k] = CellByte(v)
		}
	})
}

// setCells writes raw cells into local columns [lo, lo+len(cells)) of row
// ch, privatizing shared chunks as it goes.
func (p *powStore) setCells(ch, lo int, cells []uint8) {
	p.ownedRowSegs(ch, lo, lo+len(cells), func(seg []uint8, base int) {
		copy(seg, cells[base-lo:])
	})
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
// is copied; a chunk sealed whole for the first time is tallied (seal).
// It returns how many cells were shared versus how many words the
// snapshot had to allocate (the pointer slice), for telemetry.
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
			if hi == ChunkMarks {
				c.seal(p.width)
			}
		}
	}
	return powStore{width: p.width, chunks: chunks, off: p.off - first*ChunkMarks, n: p.n, view: true}, len(chunks)
}

// clone deep-copies the covered columns into a fresh, owned, re-based
// store.
func (p *powStore) clone() powStore {
	out := newPowStore(p.width, p.n)
	for ch := 0; ch < p.width; ch++ {
		p.rowSegs(ch, 0, p.n, func(seg []uint8, base int) {
			out.setCells(ch, base, seg)
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
