package trajectory

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"rups/internal/gsm"
)

// A trajectory's wire form is its marks as consecutive chunks of at most
// MaxChunkMarks marks, each in the chunk codec — how the reliable sync and
// trace capture files both carry it.

// wireChunks encodes a as consecutive ≤MaxChunkMarks-mark chunks.
func wireChunks(a *Aware) [][]byte {
	cells := make([]uint8, MaxChunkMarks*a.Width())
	var out [][]byte
	for at := 0; at < a.Len(); at += MaxChunkMarks {
		n := min(MaxChunkMarks, a.Len()-at)
		out = append(out, AppendChunk(nil, a.CopyChunk(at, n, cells)))
	}
	return out
}

// fromWire rebuilds a width-channel trajectory from consecutive chunks,
// refusing a chunk that does not continue the copy or has another width.
func fromWire(blobs [][]byte, width int) (*Aware, error) {
	b := NewAwareWidth(Geo{}, width)
	for k, blob := range blobs {
		c, err := ParseChunk(blob)
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", k, err)
		}
		if c.From != b.Len() || c.Chans() != width {
			return nil, fmt.Errorf("chunk %d: %d channels from mark %d, want %d from mark %d",
				k, c.Chans(), c.From, width, b.Len())
		}
		b.AppendCellColumns(c.Marks, c.Cells, len(c.Marks))
	}
	return b, nil
}

// sameTrajectory reports the first difference between a and b's marks or
// cells, or "" when they are bit-identical.
func sameTrajectory(a, b *Aware) string {
	if a.Len() != b.Len() || a.Width() != b.Width() {
		return fmt.Sprintf("%d×%d vs %d×%d", a.Width(), a.Len(), b.Width(), b.Len())
	}
	for i, m := range a.Geo.Marks {
		n := b.Geo.Marks[i]
		if math.Float64bits(m.Theta) != math.Float64bits(n.Theta) || math.Float64bits(m.T) != math.Float64bits(n.T) {
			return fmt.Sprintf("mark %d: %+v vs %+v", i, m, n)
		}
	}
	ra, rb := make([]uint8, a.Len()), make([]uint8, b.Len())
	for ch := 0; ch < a.Width(); ch++ {
		a.CopyCellsInto(ch, 0, ra)
		b.CopyCellsInto(ch, 0, rb)
		if !bytes.Equal(ra, rb) {
			return fmt.Sprintf("channel %d cells differ", ch)
		}
	}
	return ""
}

// TestWireRoundTrip: a trajectory spanning several chunk seams, a fifth of
// its cells missing, comes back from its wire form bit-identical, and every
// chunk stays within MaxChunkSize.
func TestWireRoundTrip(t *testing.T) {
	a := randomAware(1, 2*MaxChunkMarks+50)
	blobs := wireChunks(a)
	if len(blobs) != 3 {
		t.Fatalf("%d marks in %d chunks, want 3", a.Len(), len(blobs))
	}
	for k, blob := range blobs {
		n := min(MaxChunkMarks, a.Len()-k*MaxChunkMarks)
		if len(blob) > MaxChunkSize(n, gsm.NumChannels) {
			t.Errorf("chunk %d: %d bytes over the %d bound", k, len(blob), MaxChunkSize(n, gsm.NumChannels))
		}
	}
	b, err := fromWire(blobs, a.Width())
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameTrajectory(a, b); diff != "" {
		t.Fatalf("round trip not lossless: %s", diff)
	}
}

// TestWireSizeMatchesPaper: §V-B puts a 1 km journey context at about
// 182 KB. The codec's worst case for 1000 marks over the GSM channels —
// every step a full byte — lands in that ballpark (within 25%), and a
// context shaped like interpolated GSM rows delta-codes to well under it.
func TestWireSizeMatchesPaper(t *testing.T) {
	const marks = 1000
	paper := 182 * 1024
	worst, smooth := 0, 0
	for at := 0; at < marks; at += MaxChunkMarks {
		n := min(MaxChunkMarks, marks-at)
		worst += MaxChunkSize(n, gsm.NumChannels)
		smooth += len(AppendChunk(nil, smoothChunk(uint64(at), at, n, gsm.NumChannels)))
	}
	if ratio := float64(worst) / float64(paper); ratio < 0.75 || ratio > 1.25 {
		t.Errorf("1 km context worst case = %d bytes; paper says ~%d (ratio %.2f)", worst, paper, ratio)
	}
	if smooth >= paper*3/4 {
		t.Errorf("smooth 1 km context = %d bytes, not under 3/4 of the paper's ~%d", smooth, paper)
	}
	t.Logf("1 km context: %d B smooth, %d B worst case, paper ~%d B", smooth, worst, paper)
}

// TestWireRejectsGarbage: blobs that are no chunk, and a valid wire form
// cut short, are refused rather than rebuilt into a trajectory.
func TestWireRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":        nil,
		"short":        make([]byte, 5),
		"zero header":  make([]byte, chunkHeaderLen),
		"zero marks":   {0, 0, 0, 0, 0, 0, 1, 0},
		"zero chans":   {0, 0, 0, 0, 1, 0, 0, 0},
		"over the cap": {0, 0, 0, 0, MaxChunkMarks + 1, 0, 1, 0},
	}
	for name, data := range cases {
		if _, err := ParseChunk(data); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	a := randomAware(2, MaxChunkMarks+10)
	blobs := wireChunks(a)
	last := blobs[len(blobs)-1]
	truncated := append(append([][]byte(nil), blobs[:len(blobs)-1]...), last[:len(last)-1])
	if _, err := fromWire(truncated, a.Width()); err == nil {
		t.Error("truncated: expected error")
	}
	if _, err := fromWire(blobs[1:], a.Width()); err == nil {
		t.Error("missing first chunk: expected error")
	}
	if _, err := fromWire(blobs, a.Width()-1); err == nil {
		t.Error("wrong width: expected error")
	}
}

// TestWireRoundTripProperty: re-encoding a decoded wire form gives the
// same bytes — cells are stored as the bytes they travel as, so a round
// trip is idempotent.
func TestWireRoundTripProperty(t *testing.T) {
	f := func(seed uint64, mRaw uint16) bool {
		m := int(mRaw)%(3*MaxChunkMarks) + 1
		a := randomAware(seed, m)
		blobs := wireChunks(a)
		b, err := fromWire(blobs, a.Width())
		if err != nil {
			return false
		}
		again := wireChunks(b)
		if len(again) != len(blobs) {
			return false
		}
		for k := range blobs {
			if !bytes.Equal(blobs[k], again[k]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
