package v2v

import (
	"bytes"
	"math"
	"testing"

	"rups/internal/stats"
	"rups/internal/trajectory"
)

// allCellsChunk encodes a 16-mark, 16-channel chunk whose cells take every
// byte value once, 0xFF (missing) included.
func allCellsChunk() []byte {
	const n, chans = 16, 16
	d := Delta{FromMark: 40, Marks: make([]trajectory.GeoMark, n), Power: make([][]float64, chans)}
	for i := range d.Marks {
		d.Marks[i] = trajectory.GeoMark{Theta: 0.1 * float64(i), T: 100 + float64(i)/7}
	}
	for ch := range d.Power {
		d.Power[ch] = make([]float64, n)
		for i := range d.Power[ch] {
			d.Power[ch][i] = trajectory.CellDBm(uint8(ch*n + i))
		}
	}
	return encodeChunk(d)
}

// TestChunkRoundTripAllCellBytes: every cell byte decodes to the dBm the
// trajectory stores for it and re-encodes to itself, so a chunk round trip
// is byte-exact and a synced copy holds the sender's exact cells.
func TestChunkRoundTripAllCellBytes(t *testing.T) {
	blob := allCellsChunk()
	d, err := decodeChunk(blob)
	if err != nil {
		t.Fatal(err)
	}
	for ch, row := range d.Power {
		for i, v := range row {
			b := uint8(ch*len(row) + i)
			want := trajectory.CellDBm(b)
			if math.Float64bits(v) != math.Float64bits(want) && !(stats.IsMissing(v) && stats.IsMissing(want)) {
				t.Fatalf("cell byte %#x decoded to %v, want %v", b, v, want)
			}
		}
	}
	if again := encodeChunk(d); !bytes.Equal(again, blob) {
		t.Fatal("re-encoding a decoded chunk changed its bytes")
	}
	// Applied to a trajectory, every cell is stored as the byte it came as.
	a := trajectory.NewAwareWidth(trajectory.Geo{}, len(d.Power))
	d.FromMark = 0
	if err := d.Apply(a); err != nil {
		t.Fatal(err)
	}
	for ch := 0; ch < a.Width(); ch++ {
		for i := 0; i < a.Len(); i++ {
			if got, want := trajectory.CellByte(a.At(ch, i)), uint8(ch*a.Len()+i); got != want {
				t.Fatalf("applied cell (%d,%d) stored as %#x, want %#x", ch, i, got, want)
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
		if _, err := decodeChunk(b); err == nil {
			t.Errorf("%s: decodeChunk accepted a %d-byte blob", name, len(b))
		}
	}
}

// FuzzDecodeChunk hammers the chunk decoder, which a socket reaches through
// rups-serve's DATA reassembly: it must never panic, and everything it
// accepts must be exactly the size its header claims and re-encode to the
// same bytes (the codec is lossless).
func FuzzDecodeChunk(f *testing.F) {
	f.Add(allCellsChunk())
	f.Add(encodeChunk(Delta{FromMark: 3,
		Marks: []trajectory.GeoMark{{Theta: 1.5, T: 12.25}},
		Power: [][]float64{{-87}, {stats.Missing}}}))
	f.Add([]byte{})
	f.Add(make([]byte, chunkHeaderLen))
	// Header claiming 0xFFFF marks × 0xFFFF channels with nothing behind it.
	f.Add([]byte{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decodeChunk(data)
		if err != nil {
			return
		}
		if len(d.Marks) == 0 || len(d.Power) == 0 {
			t.Fatalf("accepted an empty chunk: %d marks, %d channels", len(d.Marks), len(d.Power))
		}
		if want := chunkSize(len(d.Marks), len(d.Power)); len(data) != want {
			t.Fatalf("accepted %d bytes for %d marks × %d channels, want %d", len(data), len(d.Marks), len(d.Power), want)
		}
		for ch, row := range d.Power {
			if len(row) != len(d.Marks) {
				t.Fatalf("ragged row %d: %d cells for %d marks", ch, len(row), len(d.Marks))
			}
		}
		if again := encodeChunk(d); !bytes.Equal(again, data) {
			t.Fatal("an accepted chunk does not re-encode to its own bytes")
		}
	})
}
