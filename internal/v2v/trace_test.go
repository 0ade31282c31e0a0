package v2v

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"rups/internal/link"
	"rups/internal/obs"
	"rups/internal/trajectory"
)

// TestBurstRetransmitStitchesToOriginTrace drives a session through a
// Gilbert–Elliott burst link and checks the causal-trace invariant end to
// end: every sender chunk span (first transmission or retransmission) and
// every receiver reassemble/admit span lands on the session's one
// originating TraceID, and each reassemble hangs off an actual sender
// chunk span — the chunk completed under *some* transmission, and that
// transmission is its parent.
func TestBurstRetransmitStitchesToOriginTrace(t *testing.T) {
	rec := obs.NewRecorder(1 << 16)
	obs.SetRecorder(rec)
	defer obs.SetRecorder(nil)

	src := mkAware(27, 200)
	p := link.Params{
		Seed: 17, Loss: 0.2,
		BurstEnter: 0.05, BurstExit: 0.2,
		Reorder: 0.1, Duplicate: 0.05,
	}
	s := NewSession(src, link.New(p, 0), link.New(p, 1), SyncConfig{Seed: 9})
	rounds := runSync(s, 1e9, 200000)
	if !s.Quiescent() {
		t.Fatalf("no convergence under burst loss after %d rounds", rounds)
	}
	assertBitExact(t, s.Copy(), src, src.Len())

	var origin obs.TraceID
	chunkSpans := map[obs.SpanID]bool{}
	resends, reassembles, admits := 0, 0, 0
	for _, ev := range rec.Events() {
		switch ev.Name {
		case "chunk_send", "chunk_resend":
			if origin == 0 {
				origin = ev.Trace
			}
			if ev.Trace != origin {
				t.Fatalf("sender span %s on trace %d, origin is %d", ev.Name, ev.Trace, origin)
			}
			chunkSpans[ev.ID] = true
			if ev.Name == "chunk_resend" {
				resends++
			}
		}
	}
	if origin == 0 {
		t.Fatal("no sender chunk spans recorded")
	}
	if resends == 0 {
		t.Fatal("burst link produced no retransmissions; the test exercises nothing")
	}
	for _, ev := range rec.Events() {
		switch ev.Name {
		case "reassemble":
			reassembles++
			if ev.Trace != origin {
				t.Fatalf("reassemble on trace %d, want origin %d", ev.Trace, origin)
			}
			if !chunkSpans[ev.Parent] {
				t.Fatalf("reassemble parent %d is not a sender chunk span", ev.Parent)
			}
		case "admit_chunk":
			admits++
			if ev.Trace != origin {
				t.Fatalf("admit_chunk on trace %d, want origin %d", ev.Trace, origin)
			}
		}
	}
	if reassembles == 0 || admits == 0 {
		t.Fatalf("receiver spans missing: %d reassembles, %d admits", reassembles, admits)
	}
	if got := s.TraceRef(); got.Trace != origin {
		t.Fatalf("session TraceRef %d, want origin %d", got.Trace, origin)
	}
}

// mkTracedFrame builds one valid traced DATA frame for the corruption
// tests: a single-fragment chunk stamped with a known TraceRef.
func mkTracedFrame(t testing.TB, ref obs.TraceRef) []byte {
	t.Helper()
	d := Delta{
		FromMark: 5,
		Marks:    []trajectory.GeoMark{{Theta: 2.5, T: 10}, {Theta: 2.75, T: 11}},
		Power:    [][]float64{{-80, -81}, {-90, -91}},
	}
	frames := DataFrames(d, ref, 0)
	if len(frames) != 1 {
		t.Fatalf("expected a single-fragment chunk, got %d frames", len(frames))
	}
	return frames[0]
}

// TestCorruptedTraceHeaderDegradesToUnstitched scrambles the 16-byte trace
// extension of a valid frame (and repairs the CRC, as a transparently
// re-framing relay might) and checks the failure mode the wire format
// promises: the frame still parses, the payload is untouched, and only the
// trace ref degrades — to garbage that will never match a live trace, i.e.
// an unstitched span, not a decode error.
func TestCorruptedTraceHeaderDegradesToUnstitched(t *testing.T) {
	ref := obs.TraceRef{Trace: 424242, Parent: 777}
	good := mkTracedFrame(t, ref)
	parsed, err := parseFrame(good)
	if err != nil {
		t.Fatalf("valid traced frame rejected: %v", err)
	}
	if parsed.ref != ref {
		t.Fatalf("parsed ref %+v, want %+v", parsed.ref, ref)
	}

	bad := append([]byte(nil), good...)
	for i := 0; i < traceExtLen; i++ {
		bad[dataHeaderLen+i] ^= 0xA5
	}
	body := bad[:len(bad)-frameCRCLen]
	binary.LittleEndian.PutUint32(bad[len(bad)-frameCRCLen:], crc32.ChecksumIEEE(body))

	got, err := parseFrame(bad)
	if err != nil {
		t.Fatalf("scrambled trace header rejected the frame: %v", err)
	}
	if got.ref == ref {
		t.Fatal("scrambled trace header parsed back to the original ref")
	}
	if string(got.payload) != string(parsed.payload) {
		t.Fatal("payload changed under a trace-header-only scramble")
	}
	if got.from != parsed.from || got.nFrags != parsed.nFrags {
		t.Fatal("chunk header changed under a trace-header-only scramble")
	}
}

// FuzzParseFrame hammers the frame parser. Seeds include a valid traced
// frame and the scrambled-trace-header variant from the test above, which
// pins the degrade-not-reject behavior into the corpus.
func FuzzParseFrame(f *testing.F) {
	ref := obs.TraceRef{Trace: 424242, Parent: 777}
	good := mkTracedFrame(f, ref)
	f.Add(append([]byte(nil), good...))
	// Untraced variant.
	d := Delta{FromMark: 5,
		Marks: []trajectory.GeoMark{{Theta: 2.5, T: 10}},
		Power: [][]float64{{-80}}}
	for _, fr := range DataFrames(d, obs.TraceRef{}, 0) {
		f.Add(fr)
	}
	// Scrambled trace extension with a repaired CRC: must still parse.
	scrambled := append([]byte(nil), good...)
	for i := 0; i < traceExtLen; i++ {
		scrambled[dataHeaderLen+i] ^= 0xA5
	}
	binary.LittleEndian.PutUint32(scrambled[len(scrambled)-frameCRCLen:],
		crc32.ChecksumIEEE(scrambled[:len(scrambled)-frameCRCLen]))
	f.Add(scrambled)
	f.Add(ackFrameBytes(12, 0))
	f.Add([]byte{})
	f.Add([]byte{0x52, 0x4C})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := parseFrame(data)
		if err != nil {
			return
		}
		// Accepted frames must be structurally sound: the payload sits
		// inside the claimed chunk blob and the fragment index inside the
		// fragment count.
		if fr.typ == frameData {
			if fr.offset < 0 || fr.offset+len(fr.payload) > fr.total {
				t.Fatalf("accepted fragment outside its blob: off=%d len=%d total=%d",
					fr.offset, len(fr.payload), fr.total)
			}
			if fr.fragIdx >= fr.nFrags {
				t.Fatalf("accepted fragment %d of %d", fr.fragIdx, fr.nFrags)
			}
		}
	})
}
