package v2v

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"rups/internal/obs"
	"rups/internal/trajectory"
)

// The reliable sync protocol's wire formats.
//
// A *chunk* is the protocol's sequence-numbered unit: a contiguous run of
// trajectory marks starting at mark FromMark, in the trajectory codec
// (trajectory.AppendChunk). The codec is lossless, so a fully synced copy
// is byte-identical to the sender's prefix — which is what lets the
// reliable path degrade to the perfect-channel baseline exactly when the
// link is clean.
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
)

var errBadFrame = errors.New("v2v: malformed frame")

// dataFrames encodes the chunk and fragments it into WSM-bounded DATA
// frames. A nonzero ref.Trace stamps every fragment with the 16-byte
// causal-trace extension, and a nonzero epoch with the 4-byte restart
// epoch (the per-fragment payload budget shrinks to keep the frames
// inside the WSM bound); zero ref and epoch emit the extension-free
// wire format.
func dataFrames(c trajectory.Chunk, ref obs.TraceRef, epoch uint32) [][]byte {
	blob := trajectory.AppendChunk(make([]byte, 0, trajectory.MaxChunkSize(len(c.Marks), c.Chans())), c)
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
		fr = binary.LittleEndian.AppendUint32(fr, uint32(c.From))
		fr = binary.LittleEndian.AppendUint16(fr, uint16(len(c.Marks)))
		fr = binary.LittleEndian.AppendUint16(fr, uint16(c.Chans()))
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
// from a trajectory, and a delta over trajectory.MaxChunkMarks marks is
// split into consecutive chunks. See dataFrames.
func DataFrames(d Delta, ref obs.TraceRef, epoch uint32) [][]byte {
	var out [][]byte
	for at := 0; at < len(d.Marks); at += trajectory.MaxChunkMarks {
		c := cellChunk(d, at, min(trajectory.MaxChunkMarks, len(d.Marks)-at))
		out = append(out, dataFrames(c, ref, epoch)...)
	}
	return out
}

// cellChunk rounds marks [at, at+n) of d to a chunk of cells.
func cellChunk(d Delta, at, n int) trajectory.Chunk {
	c := trajectory.Chunk{From: d.FromMark + at, Marks: d.Marks[at : at+n], Cells: make([]uint8, len(d.Power)*n)}
	for ch, row := range d.Power {
		for i, v := range row[at : at+n] {
			c.Cells[ch*n+i] = trajectory.CellByte(v)
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
		if fr.nMarks == 0 || fr.nMarks > trajectory.MaxChunkMarks || fr.chans == 0 ||
			fr.nFrags == 0 || fr.fragIdx >= fr.nFrags {
			return frame{}, errBadFrame
		}
		// The claimed blob length sizes the receiver's reassembly buffer:
		// no conforming chunk of these counts is longer.
		if fr.total <= 0 || fr.total > trajectory.MaxChunkSize(fr.nMarks, fr.chans) ||
			fr.offset < 0 || fr.offset+plen > fr.total {
			return frame{}, errBadFrame
		}
		fr.payload = b[payloadStart : payloadStart+plen]
		return fr, nil
	default:
		return frame{}, errBadFrame
	}
}
