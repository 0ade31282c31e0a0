package trajectory

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"testing"

	"rups/internal/gsm"
	"rups/internal/noise"
	"rups/internal/stats"
)

// smoothChunk builds an n-mark, chans-channel chunk shaped like an
// interpolated GSM context: each row a random walk of mostly 0 and ±1 dB
// steps with the occasional jump, and a few channels missing throughout.
func smoothChunk(seed uint64, from, n, chans int) Chunk {
	c := Chunk{From: from, Marks: make([]GeoMark, n), Cells: make([]uint8, n*chans)}
	for i := range c.Marks {
		c.Marks[i] = GeoMark{Theta: noise.Uniform(seed, 1, uint64(i)) * 6, T: float64(from + i + 1)}
	}
	for ch := 0; ch < chans; ch++ {
		row := c.Row(ch)
		if ch%23 == 7 {
			for i := range row {
				row[i] = MissingCell
			}
			continue
		}
		v := 10 + int(50*noise.Uniform(seed, 2, uint64(ch)))
		for i := range row {
			u := noise.Uniform(seed, 3, uint64(ch), uint64(i))
			switch {
			case u < 0.05:
				v += int(u*400) - 10
			case u < 0.5:
				v += int(u*6) - 1
			}
			v = min(max(v, 0), 254)
			row[i] = uint8(v)
		}
	}
	return c
}

// layoutChunk writes c in the chunk layout with the given per-channel step
// widths, canonical or not — the reference the decoder's rejections and
// the encoder's output are checked against. Steps wider than their width
// are truncated to it.
func layoutChunk(c Chunk, widths []int) []byte {
	n, chans := len(c.Marks), c.Chans()
	b := binary.LittleEndian.AppendUint32(nil, uint32(c.From))
	b = binary.LittleEndian.AppendUint16(b, uint16(n))
	b = binary.LittleEndian.AppendUint16(b, uint16(chans))
	for _, mk := range c.Marks {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(mk.Theta))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(mk.T))
	}
	for ch := 0; ch < chans; ch++ {
		b = append(b, c.Row(ch)[0])
	}
	if n == 1 {
		return b
	}
	nib := make([]byte, (chans+1)/2)
	for ch, w := range widths {
		nib[ch/2] |= byte(w) << (4 * (ch % 2))
	}
	b = append(b, nib...)
	var stream []bool
	for ch, w := range widths {
		row := c.Row(ch)
		for i := 1; i < n; i++ {
			z := zigzag(row[i] - row[i-1])
			for k := 0; k < w; k++ {
				stream = append(stream, z>>k&1 == 1)
			}
		}
	}
	for k := 0; k < len(stream); k += 8 {
		var by byte
		for j := 0; j < 8 && k+j < len(stream); j++ {
			if stream[k+j] {
				by |= 1 << j
			}
		}
		b = append(b, by)
	}
	return b
}

// minimalWidths returns each channel's canonical step width.
func minimalWidths(c Chunk) []int {
	ws := make([]int, c.Chans())
	for ch := range ws {
		row := c.Row(ch)
		for i := 1; i < len(row); i++ {
			ws[ch] = max(ws[ch], bits.Len8(zigzag(row[i]-row[i-1])))
		}
	}
	return ws
}

// allCellsChunk encodes a 16-mark, 16-channel chunk whose cells take every
// byte value once, 0xFF (missing) included.
func allCellsChunk() []byte {
	const n, chans = 16, 16
	c := Chunk{From: 40, Marks: make([]GeoMark, n), Cells: make([]uint8, n*chans)}
	for i := range c.Marks {
		c.Marks[i] = GeoMark{Theta: 0.1 * float64(i), T: 100 + float64(i)/7}
	}
	for k := range c.Cells {
		c.Cells[k] = uint8(k)
	}
	return AppendChunk(nil, c)
}

// TestChunkRoundTripAllCellBytes: every cell byte decodes as itself and
// re-encodes to itself, so a chunk round trip is byte-exact, and a
// trajectory extended by the chunk stores every cell as the byte it came
// as and reads it back as the dBm CellDBm gives it.
func TestChunkRoundTripAllCellBytes(t *testing.T) {
	blob := allCellsChunk()
	c, err := ParseChunk(blob)
	if err != nil {
		t.Fatal(err)
	}
	for k, b := range c.Cells {
		if b != uint8(k) {
			t.Fatalf("cell byte %#x decoded as %#x", k, b)
		}
	}
	if again := AppendChunk(nil, c); !bytes.Equal(again, blob) {
		t.Fatal("re-encoding a decoded chunk changed its bytes")
	}
	a := NewAwareWidth(Geo{}, c.Chans())
	a.AppendCellColumns(c.Marks, c.Cells, len(c.Marks))
	for ch := 0; ch < a.Width(); ch++ {
		for i := 0; i < a.Len(); i++ {
			b := uint8(ch*a.Len() + i)
			v, want := a.At(ch, i), CellDBm(b)
			if math.Float64bits(v) != math.Float64bits(want) && !(stats.IsMissing(v) && stats.IsMissing(want)) {
				t.Fatalf("cell byte %#x reads as %v, want %v", b, v, want)
			}
			if got := CellByte(v); got != b {
				t.Fatalf("applied cell (%d,%d) stored as %#x, want %#x", ch, i, got, b)
			}
		}
	}
}

// TestDecodeChunkRejectsWrongSize: a blob whose length disagrees with its
// header's mark and channel counts is refused — a byte short, a byte long,
// a header alone, and the 8-byte-per-cell size of the float64 codec.
func TestDecodeChunkRejectsWrongSize(t *testing.T) {
	blob := allCellsChunk()
	const n, chans = 16, 16
	float64Size := make([]byte, chunkHeaderLen+n*16+chans*n*8)
	copy(float64Size, blob)
	for name, b := range map[string][]byte{
		"one short":     blob[:len(blob)-1],
		"one long":      append(append([]byte(nil), blob...), 0),
		"header only":   blob[:chunkHeaderLen],
		"short header":  blob[:chunkHeaderLen-1],
		"float64 cells": float64Size,
	} {
		if _, err := ParseChunk(b); err == nil {
			t.Errorf("%s: ParseChunk accepted a %d-byte blob", name, len(b))
		}
	}
}

// TestDecodeChunkRejectsNonCanonical: every way a blob can decode to cells
// yet differ from the one encoding of them is refused — widths over 8, a
// width one wider than the steps need, set pad bits or spare nibble, a
// byte short or long — and so is the fixed one-byte-per-cell layout that
// preceded delta coding.
func TestDecodeChunkRejectsNonCanonical(t *testing.T) {
	const n, chans = 8, 5 // odd: the last width byte has a spare nibble
	c := smoothChunk(7, 16, n, chans)
	ws := minimalWidths(c)
	good := layoutChunk(c, ws)
	if !bytes.Equal(good, AppendChunk(nil, c)) {
		t.Fatal("appendChunk differs from the reference layout at minimal widths")
	}
	if _, err := ParseChunk(good); err != nil {
		t.Fatalf("canonical chunk rejected: %v", err)
	}
	widthsAt := chunkHeaderLen + 16*n + chans
	streamBits := 0
	for _, w := range ws {
		streamBits += w * (n - 1)
	}
	if streamBits%8 == 0 {
		t.Fatal("fixture needs a partial last stream byte")
	}
	cases := map[string][]byte{}
	for w := 9; w <= 15; w++ {
		// The stream is padded to the length the width implies, so only
		// the width itself is wrong.
		bad := append([]byte(nil), good...)
		bad[widthsAt] = bad[widthsAt]&0xF0 | byte(w)
		nb := streamBits + (w-ws[0])*(n-1)
		bad = append(bad, make([]byte, widthsAt+(chans+1)/2+(nb+7)/8-len(bad))...)
		cases[fmt.Sprintf("width %d", w)] = bad
	}
	for ch, w := range ws {
		if w < 8 {
			wide := append([]int(nil), ws...)
			wide[ch]++
			cases["width one too large"] = layoutChunk(c, wide)
			break
		}
	}
	padded := append([]byte(nil), good...)
	padded[len(padded)-1] |= 0x80
	cases["pad bit"] = padded
	spare := append([]byte(nil), good...)
	spare[widthsAt+chans/2] |= 0x10
	cases["spare nibble"] = spare
	cases["one short"] = good[:len(good)-1]
	cases["one long"] = append(append([]byte(nil), good...), 0)
	// The fixed layout: geometry, then every cell raw, channel-major.
	fixed := append([]byte(nil), good[:widthsAt-chans]...)
	fixed = append(fixed, c.Cells...)
	cases["fixed layout"] = fixed
	for name, b := range cases {
		if _, err := ParseChunk(b); err == nil {
			t.Errorf("%s: parseChunk accepted a %d-byte blob", name, len(b))
		}
	}
}

// TestChunkRoundTripRandom: chunks of random size over rows mixing smooth
// walks, uniform bytes, missing cells and 0↔254 swings decode to exactly
// the cells encoded, within maxChunkSize, in the reference layout.
func TestChunkRoundTripRandom(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		n := 1 + int(noise.Uniform(seed, 10)*MaxChunkMarks)
		chans := 1 + int(noise.Uniform(seed, 11)*40)
		c := smoothChunk(seed, int(seed)*n, n, chans)
		for ch := 0; ch < chans; ch++ {
			row := c.Row(ch)
			switch ch % 4 {
			case 1:
				for i := range row {
					row[i] = uint8(256 * noise.Uniform(seed, 12, uint64(ch), uint64(i)))
				}
			case 2:
				for i := range row {
					row[i] = uint8(254 * (i % 2))
				}
			case 3:
				for i := range row {
					if noise.Uniform(seed, 13, uint64(ch), uint64(i)) < 0.3 {
						row[i] = MissingCell
					}
				}
			}
		}
		blob := AppendChunk(nil, c)
		if len(blob) > MaxChunkSize(n, chans) {
			t.Fatalf("seed %d: %d bytes over the %d bound", seed, len(blob), MaxChunkSize(n, chans))
		}
		if !bytes.Equal(blob, layoutChunk(c, minimalWidths(c))) {
			t.Fatalf("seed %d: encoding differs from the reference layout", seed)
		}
		got, err := ParseChunk(blob)
		if err != nil {
			t.Fatalf("seed %d (%d×%d): %v", seed, n, chans, err)
		}
		if got.From != c.From || !bytes.Equal(got.Cells, c.Cells) {
			t.Fatalf("seed %d: cells changed in a round trip", seed)
		}
		for i := range c.Marks {
			if math.Float64bits(got.Marks[i].Theta) != math.Float64bits(c.Marks[i].Theta) || got.Marks[i].T != c.Marks[i].T {
				t.Fatalf("seed %d: mark %d changed in a round trip", seed, i)
			}
		}
	}
}

// BenchmarkChunkCodec times encoding and decoding one 8-mark chunk (the
// reliable sync's default) of a 194-channel GSM context — the per-chunk
// cost of the codec.
func BenchmarkChunkCodec(b *testing.B) {
	c := smoothChunk(1, 800, 8, gsm.NumChannels)
	blob := AppendChunk(nil, c)
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, MaxChunkSize(len(c.Marks), c.Chans()))
		b.SetBytes(int64(len(c.Cells)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendChunk(buf[:0], c)
		}
		b.ReportMetric(float64(len(blob))/float64(len(c.Marks)), "B/mark")
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(c.Cells)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ParseChunk(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// FuzzDecodeChunk hammers the chunk decoder, which a socket reaches through
// rups-serve's DATA reassembly: it must never panic, and everything it
// accepts must fit the size bound its header implies and re-encode to the
// same bytes (the codec is lossless and its layout canonical).
func FuzzDecodeChunk(f *testing.F) {
	f.Add(allCellsChunk())
	f.Add(AppendChunk(nil, smoothChunk(3, 640, 8, gsm.NumChannels)))
	f.Add(AppendChunk(nil, Chunk{From: 3,
		Marks: []GeoMark{{Theta: 1.5, T: 12.25}},
		Cells: []uint8{CellByte(-87), MissingCell}}))
	f.Add([]byte{})
	f.Add(make([]byte, chunkHeaderLen))
	// Header claiming 0xFFFF marks × 0xFFFF channels with nothing behind it.
	f.Add([]byte{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseChunk(data)
		if err != nil {
			return
		}
		if len(c.Marks) == 0 || len(c.Cells) == 0 || len(c.Cells)%len(c.Marks) != 0 {
			t.Fatalf("accepted a malformed chunk: %d marks, %d cells", len(c.Marks), len(c.Cells))
		}
		if bound := MaxChunkSize(len(c.Marks), c.Chans()); len(data) > bound {
			t.Fatalf("accepted %d bytes for %d marks × %d channels, over the %d bound", len(data), len(c.Marks), c.Chans(), bound)
		}
		if again := AppendChunk(nil, c); !bytes.Equal(again, data) {
			t.Fatal("an accepted chunk does not re-encode to its own bytes")
		}
	})
}
