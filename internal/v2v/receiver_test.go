package v2v

import (
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"rups/internal/gsm"
	"rups/internal/obs"
	"rups/internal/trajectory"
)

// buffered returns the bytes r holds for chunks it has not applied:
// partial reassembly buffers and decoded held chunks.
func (r *Receiver) buffered() int {
	n := 0
	for _, fb := range r.frags {
		n += len(fb.buf)
	}
	for _, h := range r.held {
		n += 16*len(h.c.Marks) + len(h.c.Cells)
	}
	return n
}

// bufferBound is the most a receiver of the given width may buffer,
// whatever it is offered (see maxPending).
func bufferBound(width int) int {
	return (maxPending + 1) * trajectory.MaxChunkSize(trajectory.MaxChunkMarks, width)
}

// rawDataFrame builds one CRC-valid, untraced DATA frame with arbitrary
// header fields — what a hostile peer can put on the wire.
func rawDataFrame(from uint32, nMarks, chans, fragIdx, nFrags uint16, total, offset uint32, payload []byte) []byte {
	fr := binary.LittleEndian.AppendUint16(nil, frameMagic)
	fr = append(fr, frameData, 0)
	fr = binary.LittleEndian.AppendUint32(fr, from)
	fr = binary.LittleEndian.AppendUint16(fr, nMarks)
	fr = binary.LittleEndian.AppendUint16(fr, chans)
	fr = binary.LittleEndian.AppendUint16(fr, fragIdx)
	fr = binary.LittleEndian.AppendUint16(fr, nFrags)
	fr = binary.LittleEndian.AppendUint32(fr, total)
	fr = binary.LittleEndian.AppendUint32(fr, offset)
	fr = binary.LittleEndian.AppendUint16(fr, uint16(len(payload)))
	fr = append(fr, payload...)
	return binary.LittleEndian.AppendUint32(fr, crc32.ChecksumIEEE(fr))
}

// chunkStream returns the DATA frames of src's marks in consecutive
// chunks of per marks, one frame list per chunk.
func chunkStream(src *trajectory.Aware, per int, epoch uint32) [][][]byte {
	var out [][][]byte
	for at := 0; at < src.Len(); at += per {
		d, err := MakeDelta(src, at)
		if err != nil {
			panic(err)
		}
		n := min(per, src.Len()-at)
		d.Marks = d.Marks[:n]
		for ch := range d.Power {
			d.Power[ch] = d.Power[ch][:n]
		}
		out = append(out, DataFrames(d, obs.TraceRef{}, epoch))
	}
	return out
}

// TestReceiverBoundsReassembly: a frame's header cannot make the receiver
// allocate more than a conforming chunk of its counts needs, nor park more
// than maxPending chunks ahead of the copy. The first case is four 31-byte
// frames, each claiming a 256 MB chunk blob, which once grew a receiver's
// heap by a gigabyte.
func TestReceiverBoundsReassembly(t *testing.T) {
	const width = gsm.NumChannels
	rx := NewReceiver(width)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := uint32(1); k <= 4; k++ {
		rx.Offer(rawDataFrame(8*k, 8, width, 0, 2, 1<<28, 0, []byte{0}))
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("four 31-byte frames allocated %d bytes", grew)
	}
	if b := rx.buffered(); b > bufferBound(width) {
		t.Fatalf("receiver buffers %d bytes, bound %d", b, bufferBound(width))
	}

	// Frames that are well-formed but not for this receiver or over the
	// per-chunk mark cap are refused outright.
	for name, fr := range map[string][]byte{
		"wrong width":    rawDataFrame(0, 8, width+1, 0, 1, 100, 0, []byte{0}),
		"too many marks": rawDataFrame(0, trajectory.MaxChunkMarks+1, width, 0, 1, 100, 0, []byte{0}),
	} {
		if rx.Offer(fr) {
			t.Errorf("%s: frame accepted", name)
		}
	}

	// Out-of-order chunks beyond the cap are dropped, the chunk at the
	// copy's end is still taken, and retransmission completes the sync.
	src := mkAware(41, 8*(maxPending+6))
	stream := chunkStream(src, 8, 0)
	rx = NewReceiver(src.Width())
	for _, frs := range stream[1:] {
		for _, fr := range frs {
			rx.Offer(fr)
		}
		if pending := len(rx.frags) + len(rx.held); pending > maxPending {
			t.Fatalf("%d chunks pending, cap %d", pending, maxPending)
		}
	}
	for _, fr := range stream[0] {
		rx.Offer(fr)
	}
	if got, want := rx.Copy().Len(), 8*(maxPending+1); got != want {
		t.Fatalf("head chunk drained to %d marks, want %d", got, want)
	}
	for _, frs := range stream {
		for _, fr := range frs {
			rx.Offer(fr)
		}
	}
	assertBitExact(t, rx.Copy(), src, src.Len())
	if !rx.Idle() {
		t.Fatal("receiver not idle after a full sync")
	}
}

// FuzzReceiverOffer feeds one receiver a stream of frames cut from the
// input: each record is a control byte, a little-endian u16 length and
// that many frame bytes; control bit 0 recomputes the frame's CRC, so
// mutated headers and payloads get past the integrity check. Whatever
// arrives, the receiver must not panic, must buffer no more than its
// bound, and must ack exactly the marks its copy holds.
func FuzzReceiverOffer(f *testing.F) {
	const width = 3
	src := mkAwareWidth(5, 40, width)
	record := func(in []byte, ctl byte, fr []byte) []byte {
		in = append(in, ctl)
		in = binary.LittleEndian.AppendUint16(in, uint16(len(fr)))
		return append(in, fr...)
	}
	stream := chunkStream(src, 8, 1)
	var inOrder, reversed, oversized []byte
	for k := range stream {
		for _, fr := range stream[k] {
			inOrder = record(inOrder, 0, fr)
		}
		for _, fr := range stream[len(stream)-1-k] {
			reversed = record(reversed, 0, fr)
		}
	}
	for k := uint32(1); k <= 4; k++ {
		oversized = record(oversized, 0, rawDataFrame(8*k, 8, width, 0, 2, 1<<28, 0, []byte{0}))
	}
	f.Add(inOrder)
	f.Add(reversed)
	f.Add(oversized)
	f.Add(record(nil, 1, stream[0][0][:len(stream[0][0])-1]))

	f.Fuzz(func(t *testing.T, in []byte) {
		rx := NewReceiver(width)
		for len(in) >= 3 {
			ctl := in[0]
			n := min(int(binary.LittleEndian.Uint16(in[1:])), len(in)-3)
			fr := append([]byte(nil), in[3:3+n]...)
			in = in[3+n:]
			if ctl&1 != 0 && len(fr) >= frameCRCLen {
				body := fr[:len(fr)-frameCRCLen]
				binary.LittleEndian.PutUint32(fr[len(body):], crc32.ChecksumIEEE(body))
			}
			rx.Offer(fr)
			if b := rx.buffered(); b > bufferBound(width) {
				t.Fatalf("receiver buffers %d bytes, bound %d", b, bufferBound(width))
			}
			if cum, _, ok := ParseAck(rx.AckBytes()); !ok || cum != rx.Copy().Len() {
				t.Fatalf("ack says %d marks (ok %v), copy holds %d", cum, ok, rx.Copy().Len())
			}
		}
	})
}

// TestDataFramesSplitsLongDeltas: a delta over trajectory.MaxChunkMarks
// marks goes out as consecutive chunks within the cap, which a receiver
// rebuilds exactly.
func TestDataFramesSplitsLongDeltas(t *testing.T) {
	src := mkAware(42, 2*trajectory.MaxChunkMarks+5)
	d, err := MakeDelta(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	rx := NewReceiver(src.Width())
	for _, fr := range DataFrames(d, obs.TraceRef{}, 0) {
		if p, err := parseFrame(fr); err != nil || p.nMarks > trajectory.MaxChunkMarks {
			t.Fatalf("frame of %d marks (err %v) over the %d cap", p.nMarks, err, trajectory.MaxChunkMarks)
		}
		if !rx.Offer(fr) {
			t.Fatal("receiver refused a DataFrames frame")
		}
	}
	assertBitExact(t, rx.Copy(), src, src.Len())
}
