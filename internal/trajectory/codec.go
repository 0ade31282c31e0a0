package trajectory

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// The trajectory codec: the one binary layout for trajectory data. The
// reliable V2V sync ships it inside its DATA frames and trace capture files
// store each vehicle's trajectory as consecutive chunks of it.
//
// A *chunk* is a contiguous run of marks starting at mark From, encoded
// *losslessly*. The geometry travels as raw float64 bits; the power travels
// as the trajectory's own one-byte cells (CellByte), delta-coded along each
// channel. A chunk round trip of a trajectory's rows is bit-exact, so a
// copy rebuilt from chunks is byte-identical to the source.
//
// Chunk (little endian):
//
//	fromMark uint32
//	nMarks   uint16  n, 1..MaxChunkMarks
//	channels uint16  c
//	geometry n × { theta float64 bits, t float64 bits }
//	first    c bytes  the first mark's cell on each channel
//	widths   ⌈c/2⌉ bytes, only when n > 1: channel ch's delta width
//	         w_ch ∈ 0..8 in nibble ch, low nibble first
//	deltas   only when n > 1: an LSB-first bitstream holding, channel by
//	         channel, the n−1 steps zz(int8(cell[i] − cell[i−1])) of w_ch
//	         bits each (zz the zigzag map, the subtraction wrapping),
//	         zero-padded to a whole byte
//
// Interpolated GSM rows move a few dB per metre, so most channels need 2–3
// bits per step instead of 8. The layout is canonical: w_ch is the bit
// length of the channel's largest zigzag code, and the decoder refuses a
// wider width, a nonzero spare nibble or pad bit, and any length but the one
// the widths imply — whatever decodes re-encodes to the same bytes. A
// chunk never refers to another, so chunks decode in any order. The worst
// case, every step 8 bits wide, is MaxChunkSize: ⌈c/2⌉ bytes over one raw
// byte per cell.
const chunkHeaderLen = 8 // fromMark u32, nMarks u16, channels u16

// MaxChunkMarks caps the marks one chunk carries, so the buffer a chunk
// header makes a decoder allocate is bounded by
// MaxChunkSize(MaxChunkMarks, width) — 27 KB at 194 channels — rather than
// by the header's u16 counts.
const MaxChunkMarks = 128

// Chunk is one decoded chunk: marks [From, From+len(Marks)) with their
// power cells, channel-major — row ch is Cells[ch*len(Marks):][:len(Marks)].
type Chunk struct {
	From  int
	Marks []GeoMark
	Cells []uint8
}

// Chans returns the chunk's channel count.
func (c Chunk) Chans() int { return len(c.Cells) / len(c.Marks) }

// Row returns channel ch's cells.
func (c Chunk) Row(ch int) []uint8 {
	n := len(c.Marks)
	return c.Cells[ch*n : (ch+1)*n : (ch+1)*n]
}

// CopyChunk returns marks [from, from+n) of a as a chunk whose cells are
// copied into cells (at least n·Width long); the marks share a's storage.
func (a *Aware) CopyChunk(from, n int, cells []uint8) Chunk {
	c := Chunk{From: from, Marks: a.Geo.Marks[from : from+n], Cells: cells[:n*a.Width()]}
	for ch := 0; ch < a.Width(); ch++ {
		a.CopyCellsInto(ch, from, c.Row(ch))
	}
	return c
}

// MaxChunkSize is the largest encoding of a chunk of n marks over chans
// channels: every step at the full 8-bit width.
func MaxChunkSize(n, chans int) int {
	size := chunkHeaderLen + 16*n + chans
	if n > 1 {
		size += (chans+1)/2 + chans*(n-1)
	}
	return size
}

// zigzag maps a wrapping cell step, read as an int8, to an unsigned code
// whose bit length grows with the step's magnitude: 0, -1, 1, -2 … → 0, 1,
// 2, 3 ….
func zigzag(step uint8) uint8 { return step<<1 ^ -(step >> 7) }

// unzigzag inverts zigzag.
func unzigzag(z uint8) uint8 { return z>>1 ^ -(z & 1) }

// AppendChunk appends c's encoding (see the layout above) to buf. c holds
// 1..MaxChunkMarks marks.
func AppendChunk(buf []byte, c Chunk) []byte {
	n, chans := len(c.Marks), c.Chans()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.From))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(n))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(chans))
	for _, mk := range c.Marks {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(mk.Theta))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(mk.T))
	}
	for ch := 0; ch < chans; ch++ {
		buf = append(buf, c.Cells[ch*n])
	}
	if n == 1 {
		return buf
	}
	widths := len(buf)
	for k := 0; k < (chans+1)/2; k++ {
		buf = append(buf, 0)
	}
	var acc uint64 // pending stream bits, LSB first
	nacc := 0
	var codes [MaxChunkMarks - 1]uint8
	for ch := 0; ch < chans; ch++ {
		row := c.Row(ch)
		zs := codes[:n-1]
		var all uint8 // OR of the codes: its bit length is the largest's
		for i := range zs {
			zs[i] = zigzag(row[i+1] - row[i])
			all |= zs[i]
		}
		w := bits.Len8(all)
		buf[widths+ch/2] |= uint8(w) << (4 * (ch & 1))
		if w == 0 {
			continue
		}
		for _, z := range zs {
			acc |= uint64(z) << nacc
			nacc += w
			if nacc >= 32 {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(acc))
				acc >>= 32
				nacc -= 32
			}
		}
	}
	for ; nacc > 0; nacc -= 8 {
		buf = append(buf, byte(acc))
		acc >>= 8
	}
	return buf
}

// errBadChunk reports a chunk header that cannot describe any chunk.
var errBadChunk = errors.New("trajectory: malformed chunk header")

// ParseChunk inverts AppendChunk. It accepts exactly the canonical
// encodings — the length the header and widths imply, minimal widths, zero
// spare nibble and pad bits — so an accepted blob re-encodes to itself.
func ParseChunk(b []byte) (Chunk, error) {
	if len(b) < chunkHeaderLen {
		return Chunk{}, errBadChunk
	}
	from := int(binary.LittleEndian.Uint32(b[0:]))
	n := int(binary.LittleEndian.Uint16(b[4:]))
	chans := int(binary.LittleEndian.Uint16(b[6:]))
	if n == 0 || n > MaxChunkMarks || chans == 0 {
		return Chunk{}, errBadChunk
	}
	if len(b) > MaxChunkSize(n, chans) {
		return Chunk{}, fmt.Errorf("trajectory: chunk size %d over the %d bound", len(b), MaxChunkSize(n, chans))
	}
	firstAt := chunkHeaderLen + 16*n
	widthsAt := firstAt + chans
	streamAt := widthsAt
	if n > 1 {
		streamAt += (chans + 1) / 2
	}
	if len(b) < streamAt {
		return Chunk{}, fmt.Errorf("trajectory: chunk size %d, want at least %d", len(b), streamAt)
	}
	width := func(ch int) int { return int(b[widthsAt+ch/2] >> (4 * (ch & 1)) & 0xF) }
	streamBits := 0
	if n > 1 {
		for ch := 0; ch < chans; ch++ {
			w := width(ch)
			if w > 8 {
				return Chunk{}, fmt.Errorf("trajectory: chunk channel %d step width %d", ch, w)
			}
			streamBits += w * (n - 1)
		}
		if chans%2 == 1 && b[streamAt-1]>>4 != 0 {
			return Chunk{}, errors.New("trajectory: chunk spare width nibble set")
		}
	}
	if want := streamAt + (streamBits+7)/8; len(b) != want {
		return Chunk{}, fmt.Errorf("trajectory: chunk size %d, want %d", len(b), want)
	}
	c := Chunk{From: from, Marks: make([]GeoMark, n), Cells: make([]uint8, n*chans)}
	for i := range c.Marks {
		off := chunkHeaderLen + 16*i
		c.Marks[i] = GeoMark{
			Theta: math.Float64frombits(binary.LittleEndian.Uint64(b[off:])),
			T:     math.Float64frombits(binary.LittleEndian.Uint64(b[off+8:])),
		}
	}
	for ch, v := range b[firstAt:widthsAt] {
		c.Cells[ch*n] = v
	}
	if n == 1 {
		return c, nil
	}
	pos := streamAt
	var acc uint64 // loaded, unconsumed stream bits, LSB first
	nacc := 0
	for ch := 0; ch < chans; ch++ {
		row := c.Row(ch)
		w := width(ch)
		mask := uint64(1)<<w - 1
		var all uint8
		for i := 1; i < n; i++ {
			for nacc < w {
				acc |= uint64(b[pos]) << nacc
				pos++
				nacc += 8
			}
			z := uint8(acc & mask)
			acc >>= w
			nacc -= w
			all |= z
			row[i] = row[i-1] + unzigzag(z)
		}
		if bits.Len8(all) != w {
			return Chunk{}, fmt.Errorf("trajectory: chunk channel %d step width %d, steps need %d", ch, w, bits.Len8(all))
		}
	}
	if acc != 0 {
		return Chunk{}, errors.New("trajectory: chunk pad bits set")
	}
	return c, nil
}
