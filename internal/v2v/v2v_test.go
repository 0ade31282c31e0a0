package v2v

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"rups/internal/gsm"
	"rups/internal/noise"
	"rups/internal/obs"
	"rups/internal/stats"
	"rups/internal/trajectory"
)

func mkAware(seed uint64, m int) *trajectory.Aware { return mkAwareWidth(seed, m, gsm.NumChannels) }

// mkAwareWidth builds an m-mark trajectory over width channels, mark i
// completing at T = i+1, every cell drawn uniformly from 60 dB above the
// noise floor.
func mkAwareWidth(seed uint64, m, width int) *trajectory.Aware {
	g := trajectory.Geo{Marks: make([]trajectory.GeoMark, m)}
	for i := range g.Marks {
		g.Marks[i] = trajectory.GeoMark{
			Theta: noise.Uniform(seed, uint64(i)) * 6,
			T:     float64(i + 1),
		}
	}
	a := trajectory.NewAwareWidth(g, width)
	for ch := 0; ch < width; ch++ {
		for i := 0; i < m; i++ {
			a.SetPower(ch, i, gsm.NoiseFloorDBm+60*noise.Uniform(seed, uint64(ch), uint64(i)))
		}
	}
	return a
}

func TestDeltaRoundTrip(t *testing.T) {
	full := mkAware(5, 120)
	// Peer holds the first 100 marks.
	peer := full.PrefixUntil(100).Clone()
	d, err := MakeDelta(full, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(peer); err != nil {
		t.Fatal(err)
	}
	if peer.Len() != full.Len() {
		t.Fatalf("after delta: %d marks, want %d", peer.Len(), full.Len())
	}
	for ch := 0; ch < gsm.NumChannels; ch += 23 {
		for i := 0; i < full.Len(); i += 11 {
			if a, b := peer.At(ch, i), full.At(ch, i); a != b && !(stats.IsMissing(a) && stats.IsMissing(b)) {
				t.Fatalf("power [%d][%d]: %v vs %v", ch, i, a, b)
			}
		}
	}
}

func TestDeltaOverlapIdempotent(t *testing.T) {
	full := mkAware(6, 60)
	peer := full.PrefixUntil(50).Clone()
	d, _ := MakeDelta(full, 40) // overlaps 10 already-held marks
	if err := d.Apply(peer); err != nil {
		t.Fatal(err)
	}
	if peer.Len() != 60 {
		t.Fatalf("len after overlapping delta = %d", peer.Len())
	}
	// Applying the exact same delta again adds nothing.
	if err := d.Apply(peer); err != nil {
		t.Fatal(err)
	}
	if peer.Len() != 60 {
		t.Fatalf("len after duplicate delta = %d", peer.Len())
	}
}

func TestDeltaGapRejected(t *testing.T) {
	full := mkAware(7, 60)
	peer := full.PrefixUntil(20).Clone()
	d, _ := MakeDelta(full, 40)
	if err := d.Apply(peer); err == nil {
		t.Error("applied a delta across a gap")
	}
}

func TestDeltaErrors(t *testing.T) {
	full := mkAware(8, 30)
	if _, err := MakeDelta(full, -1); err == nil {
		t.Error("negative from accepted")
	}
	if _, err := MakeDelta(full, 30); err == nil {
		t.Error("out-of-range from accepted")
	}
}

func TestDeltaMuchSmallerThanFull(t *testing.T) {
	// The scalability claim: tracking updates are far cheaper than full
	// context transfers, counted in the DATA frame bytes that go on air.
	full := mkAware(9, 1000)
	frameBytes := func(from int) int {
		d, err := MakeDelta(full, from)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, fr := range DataFrames(d, obs.TraceRef{}, 0) {
			n += len(fr)
		}
		return n
	}
	delta, whole := frameBytes(990), frameBytes(0) // 10 new metres at 10 Hz tracking
	if delta*20 > whole {
		t.Errorf("delta %d bytes not ≪ full %d bytes", delta, whole)
	}
}

// TestDeltaWireEnforcesWSMBound: a delta far over one WSM goes out as DATA
// frames that each fit the WSM payload, with or without the trace and
// epoch extensions, which take their bytes from the fragment budget.
func TestDeltaWireEnforcesWSMBound(t *testing.T) {
	full := mkAware(12, trajectory.MaxChunkMarks+60) // random cells: widest steps
	d, err := MakeDelta(full, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ext := range []struct {
		ref   obs.TraceRef
		epoch uint32
	}{{}, {ref: obs.TraceRef{Trace: 1, Parent: 2}}, {epoch: 7}, {ref: obs.TraceRef{Trace: 3, Parent: 4}, epoch: 9}} {
		frames := DataFrames(d, ext.ref, ext.epoch)
		if len(frames) < full.Len()*full.Width()/WSMPayload { // about a byte a cell
			t.Fatalf("%+v: %d marks × %d channels in %d frames", ext, full.Len(), full.Width(), len(frames))
		}
		for i, fr := range frames {
			if len(fr) > WSMPayload {
				t.Fatalf("%+v: frame %d is %d bytes, over the %d B WSM payload", ext, i, len(fr), WSMPayload)
			}
			if _, err := parseFrame(fr); err != nil {
				t.Fatalf("%+v: frame %d: %v", ext, i, err)
			}
		}
	}
}

// TestDeltaWireRejectsGarbage: bytes that are no intact frame — empty,
// short, wrong magic, corrupted in flight, cut short, or CRC-valid with
// impossible header counts — fail to parse and are dropped.
func TestDeltaWireRejectsGarbage(t *testing.T) {
	d, err := MakeDelta(mkAware(14, 20), 0)
	if err != nil {
		t.Fatal(err)
	}
	good := DataFrames(d, obs.TraceRef{}, 0)[0]
	if _, err := parseFrame(good); err != nil {
		t.Fatalf("valid frame: %v", err)
	}
	flipped := append([]byte(nil), good...)
	flipped[dataHeaderLen+3] ^= 0x10
	ack := AckFrame(5, 0)
	longAck := append(append([]byte(nil), ack[:len(ack)-frameCRCLen]...), 0)
	longAck = binary.LittleEndian.AppendUint32(longAck, crc32.ChecksumIEEE(longAck))
	for name, data := range map[string][]byte{
		"empty":        nil,
		"short":        make([]byte, 4),
		"magic":        make([]byte, 30),
		"corrupted":    flipped,
		"truncated":    good[:len(good)-1],
		"long ack":     longAck,
		"zero marks":   rawDataFrame(0, 0, 1, 0, 1, 1, 0, []byte{0}),
		"over cap":     rawDataFrame(0, trajectory.MaxChunkMarks+1, 1, 0, 1, 1, 0, []byte{0}),
		"frag index":   rawDataFrame(0, 1, 1, 1, 1, 1, 0, []byte{0}),
		"past blob":    rawDataFrame(0, 1, 1, 0, 1, 1, 1, []byte{0}),
		"blob too big": rawDataFrame(0, 1, 1, 0, 1, uint32(trajectory.MaxChunkSize(1, 1)+1), 0, []byte{0}),
	} {
		if _, err := parseFrame(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
