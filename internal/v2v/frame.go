package v2v

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"rups/internal/obs"
	"rups/internal/trajectory"
)

// The reliable sync protocol's wire formats.
//
// A *chunk* is the protocol's sequence-numbered unit: a contiguous run of
// trajectory marks starting at mark FromMark, encoded *losslessly*. The
// geometry travels as raw float64 bits; the power travels as the
// trajectory's own one-byte cells (trajectory.CellByte), delta-coded along
// each channel. A chunk round trip of a trajectory's rows is bit-exact, so
// a fully synced copy is byte-identical to the sender's prefix — which is
// what lets the reliable path degrade to the perfect-channel baseline
// exactly when the link is clean.
//
// Chunk (little endian):
//
//	fromMark uint32
//	nMarks   uint16  n, 1..maxChunkMarks
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
// chunk never refers to another, so out-of-order chunks and go-back-N
// regrouping need nothing from the receiver's history. The worst case,
// every step 8 bits wide, is maxChunkSize: ⌈c/2⌉ bytes over one raw byte
// per cell.
//
// A 194-channel mark costs 16 B of geometry plus ~80 B of cells, so a
// default 8-mark chunk usually fits one 1400 B WSM payload; larger ones are
// fragmented into DATA frames. Every frame carries a CRC32 so in-flight
// corruption is detected and the frame dropped rather than applied.
//
// DATA frame (little endian):
//
//	magic    uint16 'RL'
//	type     uint8  1
//	flags    uint8   bit 0: causal-trace extension present
//	fromMark uint32  chunk sequence number: first mark carried
//	nMarks   uint16
//	channels uint16
//	fragIdx  uint16  fragment index within the chunk
//	nFrags   uint16
//	total    uint32  chunk blob length, bytes
//	offset   uint32  this fragment's byte offset into the blob
//	plen     uint16  payload bytes in this frame
//	[trace   uint64  originating obs.TraceID        ] when flags bit 0
//	[parent  uint64  sender-side parent obs.SpanID  ] is set (16 bytes)
//	[epoch   uint32  sender session epoch           ] when flags bit 1 is set
//	payload  plen bytes
//	crc      uint32  IEEE CRC32 over everything above
//
// The trace extension is how a cross-vehicle trace propagates: the sender
// stamps every fragment with the sync session's TraceID and the chunk-send
// span's ID, and the receiver stitches its reassemble/admit spans (and,
// downstream, the pair's resolve spans) under them. The extension costs 16
// bytes per frame inside the WSM bound — fragmentation budgets for it —
// and is only emitted while span tracing is enabled, so an untraced frame
// carries no trace bytes. Flags bits other than bit 0
// are reserved and ignored on parse (a frame from a newer sender still
// decodes; its unknown extensions are simply not understood). Trace and
// parent are opaque u64s: any value parses, so a scrambled trace header
// degrades to an unstitched span, never a decode error — only the CRC
// guards integrity.
//
// ACK frame (little endian):
//
//	magic    uint16 'RL'
//	type     uint8  2
//	flags    uint8   bit 1: epoch extension present
//	cum      uint32  cumulative contiguous marks held by the receiver
//	[epoch   uint32  epoch the receiver is synced to] when flags bit 1 is set
//	crc      uint32
const (
	frameMagic uint16 = 0x4C52 // "RL"
	frameData  byte   = 1
	frameAck   byte   = 2

	// flagTraced marks a DATA frame carrying the 16-byte trace extension.
	flagTraced byte = 1 << 0
	// flagEpoch marks a frame (DATA or ACK) carrying the 4-byte session
	// epoch extension — the restart handshake. A sender that restarts
	// with fresh sequence state announces a new epoch on every DATA
	// frame; the receiver discards its prefix and resyncs from mark 0
	// instead of wedging the go-back-N window by acking marks the new
	// sender never transmitted, and its ACK beacons echo the epoch so
	// the sender can discard stale pre-restart acks. Epoch 0 emits no
	// epoch extension.
	flagEpoch byte = 1 << 1

	dataHeaderLen = 26
	traceExtLen   = 16 // trace u64 + parent span u64
	epochExtLen   = 4  // session epoch u32
	frameCRCLen   = 4
	ackFrameLen   = 4 + 4 + frameCRCLen

	// maxFragPayload keeps every DATA frame within the WSM payload bound;
	// traced frames shave traceExtLen off this budget so the bound holds
	// with the extension in place.
	maxFragPayload = WSMPayload - dataHeaderLen - frameCRCLen

	chunkHeaderLen = 8 // fromMark u32, nMarks u16, channels u16
)

var errBadFrame = errors.New("v2v: malformed frame")

// maxChunkMarks caps the marks one chunk carries: DataFrames splits longer
// deltas and parseFrame refuses a frame claiming more, so a reassembly
// buffer a frame header makes the receiver allocate is bounded by
// maxChunkSize(maxChunkMarks, width) — 27 KB at 194 channels — rather than
// by the header's u16 counts. It is sixteen default chunks.
const maxChunkMarks = 128

// chunk is one decoded sync chunk: marks [from, from+len(marks)) with their
// power cells, channel-major — row ch is cells[ch*len(marks):][:len(marks)].
type chunk struct {
	from  int
	marks []trajectory.GeoMark
	cells []uint8
}

// chans returns the chunk's channel count.
func (c chunk) chans() int { return len(c.cells) / len(c.marks) }

// row returns channel ch's cells.
func (c chunk) row(ch int) []uint8 {
	n := len(c.marks)
	return c.cells[ch*n : (ch+1)*n : (ch+1)*n]
}

// maxChunkSize is the largest encoding of a chunk of n marks over chans
// channels: every step at the full 8-bit width.
func maxChunkSize(n, chans int) int {
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

// appendChunk appends c's encoding (see the layout above) to buf.
func appendChunk(buf []byte, c chunk) []byte {
	n, chans := len(c.marks), c.chans()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.from))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(n))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(chans))
	for _, mk := range c.marks {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(mk.Theta))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(mk.T))
	}
	for ch := 0; ch < chans; ch++ {
		buf = append(buf, c.cells[ch*n])
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
	var codes [maxChunkMarks - 1]uint8
	for ch := 0; ch < chans; ch++ {
		row := c.row(ch)
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

// parseChunk inverts appendChunk. It accepts exactly the canonical
// encodings — the length the header and widths imply, minimal widths, zero
// spare nibble and pad bits — so an accepted blob re-encodes to itself.
func parseChunk(b []byte) (chunk, error) {
	if len(b) < chunkHeaderLen {
		return chunk{}, errBadFrame
	}
	from := int(binary.LittleEndian.Uint32(b[0:]))
	n := int(binary.LittleEndian.Uint16(b[4:]))
	chans := int(binary.LittleEndian.Uint16(b[6:]))
	if n == 0 || n > maxChunkMarks || chans == 0 {
		return chunk{}, errBadFrame
	}
	if len(b) > maxChunkSize(n, chans) {
		return chunk{}, fmt.Errorf("v2v: chunk size %d over the %d bound", len(b), maxChunkSize(n, chans))
	}
	firstAt := chunkHeaderLen + 16*n
	widthsAt := firstAt + chans
	streamAt := widthsAt
	if n > 1 {
		streamAt += (chans + 1) / 2
	}
	if len(b) < streamAt {
		return chunk{}, fmt.Errorf("v2v: chunk size %d, want at least %d", len(b), streamAt)
	}
	width := func(ch int) int { return int(b[widthsAt+ch/2] >> (4 * (ch & 1)) & 0xF) }
	streamBits := 0
	if n > 1 {
		for ch := 0; ch < chans; ch++ {
			w := width(ch)
			if w > 8 {
				return chunk{}, fmt.Errorf("v2v: chunk channel %d step width %d", ch, w)
			}
			streamBits += w * (n - 1)
		}
		if chans%2 == 1 && b[streamAt-1]>>4 != 0 {
			return chunk{}, errors.New("v2v: chunk spare width nibble set")
		}
	}
	if want := streamAt + (streamBits+7)/8; len(b) != want {
		return chunk{}, fmt.Errorf("v2v: chunk size %d, want %d", len(b), want)
	}
	c := chunk{from: from, marks: make([]trajectory.GeoMark, n), cells: make([]uint8, n*chans)}
	for i := range c.marks {
		off := chunkHeaderLen + 16*i
		c.marks[i] = trajectory.GeoMark{
			Theta: math.Float64frombits(binary.LittleEndian.Uint64(b[off:])),
			T:     math.Float64frombits(binary.LittleEndian.Uint64(b[off+8:])),
		}
	}
	for ch, v := range b[firstAt:widthsAt] {
		c.cells[ch*n] = v
	}
	if n == 1 {
		return c, nil
	}
	pos := streamAt
	var acc uint64 // loaded, unconsumed stream bits, LSB first
	nacc := 0
	for ch := 0; ch < chans; ch++ {
		row := c.row(ch)
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
			return chunk{}, fmt.Errorf("v2v: chunk channel %d step width %d, steps need %d", ch, w, bits.Len8(all))
		}
	}
	if acc != 0 {
		return chunk{}, errors.New("v2v: chunk pad bits set")
	}
	return c, nil
}

// dataFrames encodes the chunk and fragments it into WSM-bounded DATA
// frames. A nonzero ref.Trace stamps every fragment with the 16-byte
// causal-trace extension, and a nonzero epoch with the 4-byte restart
// epoch (the per-fragment payload budget shrinks to keep the frames
// inside the WSM bound); zero ref and epoch emit the extension-free
// wire format.
func dataFrames(c chunk, ref obs.TraceRef, epoch uint32) [][]byte {
	blob := appendChunk(make([]byte, 0, maxChunkSize(len(c.marks), c.chans())), c)
	budget := maxFragPayload
	var flags byte
	if ref.Trace != 0 {
		budget -= traceExtLen
		flags = flagTraced
	}
	if epoch != 0 {
		budget -= epochExtLen
		flags |= flagEpoch
	}
	nFrags := (len(blob) + budget - 1) / budget
	out := make([][]byte, 0, nFrags)
	for f := 0; f < nFrags; f++ {
		off := f * budget
		end := off + budget
		if end > len(blob) {
			end = len(blob)
		}
		payload := blob[off:end]
		fr := make([]byte, 0, dataHeaderLen+traceExtLen+epochExtLen+len(payload)+frameCRCLen)
		fr = binary.LittleEndian.AppendUint16(fr, frameMagic)
		fr = append(fr, frameData, flags)
		fr = binary.LittleEndian.AppendUint32(fr, uint32(c.from))
		fr = binary.LittleEndian.AppendUint16(fr, uint16(len(c.marks)))
		fr = binary.LittleEndian.AppendUint16(fr, uint16(c.chans()))
		fr = binary.LittleEndian.AppendUint16(fr, uint16(f))
		fr = binary.LittleEndian.AppendUint16(fr, uint16(nFrags))
		fr = binary.LittleEndian.AppendUint32(fr, uint32(len(blob)))
		fr = binary.LittleEndian.AppendUint32(fr, uint32(off))
		fr = binary.LittleEndian.AppendUint16(fr, uint16(len(payload)))
		if flags&flagTraced != 0 {
			fr = binary.LittleEndian.AppendUint64(fr, uint64(ref.Trace))
			fr = binary.LittleEndian.AppendUint64(fr, uint64(ref.Parent))
		}
		if flags&flagEpoch != 0 {
			fr = binary.LittleEndian.AppendUint32(fr, epoch)
		}
		fr = append(fr, payload...)
		fr = binary.LittleEndian.AppendUint32(fr, crc32.ChecksumIEEE(fr))
		out = append(out, fr)
	}
	return out
}

// DataFrames encodes a delta as CRC-framed, WSM-bounded DATA frames — the
// exported codec surface for transports beyond the simulated link (the TCP
// resolution service streams these same bytes). Power values are rounded
// to their cells (trajectory.CellByte), which loses nothing for rows read
// from a trajectory, and a delta over maxChunkMarks marks is split into
// consecutive chunks. See dataFrames.
func DataFrames(d Delta, ref obs.TraceRef, epoch uint32) [][]byte {
	var out [][]byte
	for at := 0; at < len(d.Marks); at += maxChunkMarks {
		c := cellChunk(d, at, min(maxChunkMarks, len(d.Marks)-at))
		out = append(out, dataFrames(c, ref, epoch)...)
	}
	return out
}

// cellChunk rounds marks [at, at+n) of d to a chunk of cells.
func cellChunk(d Delta, at, n int) chunk {
	c := chunk{from: d.FromMark + at, marks: d.Marks[at : at+n], cells: make([]uint8, len(d.Power)*n)}
	for ch, row := range d.Power {
		for i, v := range row[at : at+n] {
			c.cells[ch*n+i] = trajectory.CellByte(v)
		}
	}
	return c
}

// ackFrameBytes encodes a cumulative-ack beacon. A nonzero epoch appends
// the restart-epoch extension; epoch 0 is the legacy 12-byte beacon.
func ackFrameBytes(cum int, epoch uint32) []byte {
	fr := make([]byte, 0, ackFrameLen+epochExtLen)
	fr = binary.LittleEndian.AppendUint16(fr, frameMagic)
	if epoch != 0 {
		fr = append(fr, frameAck, flagEpoch)
	} else {
		fr = append(fr, frameAck, 0)
	}
	fr = binary.LittleEndian.AppendUint32(fr, uint32(cum))
	if epoch != 0 {
		fr = binary.LittleEndian.AppendUint32(fr, epoch)
	}
	return binary.LittleEndian.AppendUint32(fr, crc32.ChecksumIEEE(fr))
}

// AckFrame encodes a cumulative-ack beacon for the given epoch — the
// exported counterpart of DataFrames for external transports.
func AckFrame(cum int, epoch uint32) []byte { return ackFrameBytes(cum, epoch) }

// ParseAck decodes an ACK frame, reporting the receiver's cumulative
// contiguous mark count and the epoch it was acked under (0 for legacy
// extension-free beacons). ok is false for anything that is not an intact
// ACK frame.
func ParseAck(b []byte) (cum int, epoch uint32, ok bool) {
	fr, err := parseFrame(b)
	if err != nil || fr.typ != frameAck {
		return 0, 0, false
	}
	return fr.cum, fr.epoch, true
}

// IsFrame reports whether b begins with the v2v frame magic — how a
// transport multiplexing v2v sync frames with its own control frames
// routes an incoming message without attempting a full parse.
func IsFrame(b []byte) bool {
	return len(b) >= 2 && binary.LittleEndian.Uint16(b[0:]) == frameMagic
}

// frame is a parsed protocol frame.
type frame struct {
	typ byte
	// ACK
	cum int
	// DATA
	from            int
	nMarks, chans   int
	fragIdx, nFrags int
	total, offset   int
	payload         []byte
	// ref is the causal-trace extension (zero when the frame is untraced).
	ref obs.TraceRef
	// epoch is the restart-epoch extension (0 when absent — legacy frames
	// and epoch-0 senders are indistinguishable by design).
	epoch uint32
}

// parseFrame validates the CRC and structure of a received frame. Frames
// the link corrupted (or that never were protocol frames) fail here and
// are dropped by the caller.
func parseFrame(b []byte) (frame, error) {
	if len(b) < 4+frameCRCLen || binary.LittleEndian.Uint16(b[0:]) != frameMagic {
		return frame{}, errBadFrame
	}
	body, tail := b[:len(b)-frameCRCLen], b[len(b)-frameCRCLen:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return frame{}, errors.New("v2v: frame CRC mismatch")
	}
	fr := frame{typ: b[2]}
	switch fr.typ {
	case frameAck:
		wantLen := ackFrameLen
		if b[3]&flagEpoch != 0 {
			wantLen += epochExtLen
		}
		if len(b) != wantLen {
			return frame{}, errBadFrame
		}
		fr.cum = int(binary.LittleEndian.Uint32(b[4:]))
		if b[3]&flagEpoch != 0 {
			fr.epoch = binary.LittleEndian.Uint32(b[8:])
		}
		return fr, nil
	case frameData:
		if len(b) < dataHeaderLen+frameCRCLen {
			return frame{}, errBadFrame
		}
		fr.from = int(binary.LittleEndian.Uint32(b[4:]))
		fr.nMarks = int(binary.LittleEndian.Uint16(b[8:]))
		fr.chans = int(binary.LittleEndian.Uint16(b[10:]))
		fr.fragIdx = int(binary.LittleEndian.Uint16(b[12:]))
		fr.nFrags = int(binary.LittleEndian.Uint16(b[14:]))
		fr.total = int(binary.LittleEndian.Uint32(b[16:]))
		fr.offset = int(binary.LittleEndian.Uint32(b[20:]))
		plen := int(binary.LittleEndian.Uint16(b[24:]))
		payloadStart := dataHeaderLen
		if b[3]&flagTraced != 0 {
			if len(b) < dataHeaderLen+traceExtLen+frameCRCLen {
				return frame{}, errBadFrame
			}
			// Any 16 bytes parse: a scrambled extension yields an unknown
			// (unstitchable) trace ref, not a rejected frame.
			fr.ref.Trace = obs.TraceID(binary.LittleEndian.Uint64(b[dataHeaderLen:]))
			fr.ref.Parent = obs.SpanID(binary.LittleEndian.Uint64(b[dataHeaderLen+8:]))
			payloadStart += traceExtLen
		}
		if b[3]&flagEpoch != 0 {
			if len(b) < payloadStart+epochExtLen+frameCRCLen {
				return frame{}, errBadFrame
			}
			fr.epoch = binary.LittleEndian.Uint32(b[payloadStart:])
			payloadStart += epochExtLen
		}
		if len(b) != payloadStart+plen+frameCRCLen {
			return frame{}, errBadFrame
		}
		if fr.nMarks == 0 || fr.nMarks > maxChunkMarks || fr.chans == 0 ||
			fr.nFrags == 0 || fr.fragIdx >= fr.nFrags {
			return frame{}, errBadFrame
		}
		// The claimed blob length sizes the receiver's reassembly buffer:
		// no conforming chunk of these counts is longer.
		if fr.total <= 0 || fr.total > maxChunkSize(fr.nMarks, fr.chans) ||
			fr.offset < 0 || fr.offset+plen > fr.total {
			return frame{}, errBadFrame
		}
		fr.payload = b[payloadStart : payloadStart+plen]
		return fr, nil
	default:
		return frame{}, errBadFrame
	}
}
