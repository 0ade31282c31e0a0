package trajectory

import (
	"math"
	"math/rand"
	"testing"

	"rups/internal/gsm"
	"rups/internal/stats"
)

// TestTailSnapshotSealsOnlyCoveredChunks: snapshotting a Tail view must
// neither reference nor seal chunks entirely below the view's first
// column. Over-sealing is safe but forces needless copy-on-write clones of
// whole width×ChunkMarks tiles when early columns are later rewritten in
// place.
func TestTailSnapshotSealsOnlyCoveredChunks(t *testing.T) {
	const n = 3*ChunkMarks + 10
	g := Geo{Marks: make([]GeoMark, n)}
	a := NewAwareWidth(g, 2)
	for i := 0; i < n; i++ {
		a.SetPower(0, i, -60)
		a.SetPower(1, i, -70)
	}

	tailLen := ChunkMarks + 5 // view starts at column 261, inside chunk 2
	tail := a.Tail(tailLen)
	snap := tail.Snapshot()

	for ci, wantShared := range []int{0, 0, ChunkMarks, n - 3*ChunkMarks} {
		if got := a.pw.chunks[ci].shared; got != wantShared {
			t.Errorf("chunk %d watermark = %d, want %d", ci, got, wantShared)
		}
	}

	// An in-place rewrite of an early column must not clone its chunk —
	// nothing sealed it.
	c0 := a.pw.chunks[0]
	a.SetPower(0, 0, -50)
	if a.pw.chunks[0] != c0 {
		t.Error("early in-place write cloned a chunk no snapshot can see")
	}

	// The snapshot still reads the sealed cells it covers, and keeps them
	// across an in-place rewrite inside the covered range.
	last := tail.Len() - 1
	if got := snap.At(0, last); got != -60 {
		t.Fatalf("snapshot read %v at its last column, want -60", got)
	}
	a.SetPower(0, n-1, -40)
	if got := snap.At(0, last); got != -60 {
		t.Errorf("in-place rewrite reached the snapshot: read %v, want -60", got)
	}
	if got := a.At(0, n-1); got != -40 {
		t.Errorf("live trajectory lost its rewrite: read %v, want -40", got)
	}
}

// TestRowMeansMatchMeanOK pins the interleaved tile sums to stats.MeanOK
// over each materialized row, bit for bit: widths that leave the last
// four-row group padded, Tail views starting mid-chunk, missing cells and
// all-missing rows.
func TestRowMeansMatchMeanOK(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, width := range []int{1, 2, 3, 4, 5, 7, 194} {
		const n = 2*ChunkMarks + 37
		a := NewAwareWidth(Geo{Marks: make([]GeoMark, n)}, width)
		for ch := 0; ch < width; ch++ {
			if ch%5 == 3 {
				continue // all missing
			}
			for i := 0; i < n; i++ {
				if rng.Intn(9) > 0 {
					a.SetPower(ch, i, -110+60*rng.Float64())
				}
			}
		}
		for _, view := range []*Aware{a, a.Tail(n - 1), a.Tail(ChunkMarks + 3), a.Tail(5)} {
			ms := make([]chMean, width)
			view.pw.rowMeans(ms)
			for ch, m := range ms {
				want, ok := stats.MeanOK(view.RowCopy(ch, 0, view.Len()))
				if m.ch != ch || (m.n > 0) != ok || (ok && math.Float64bits(m.mean) != math.Float64bits(want)) {
					t.Fatalf("width %d, view len %d, ch %d: rowMeans %+v, MeanOK (%v, %v)", width, view.Len(), ch, m, want, ok)
				}
			}
		}
	}
}

// BenchmarkTopChannels times the checking-window channel ranking of a 1 km,
// 194-channel context: every row's mean, then the top-45 selection. live
// ranks a trajectory no snapshot has sealed, reading every cell; sealed
// ranks a snapshot, whose seven whole chunks answer from their tallies.
func BenchmarkTopChannels(b *testing.B) {
	const n, width = 1000, 194
	a := NewAwareWidth(Geo{Marks: make([]GeoMark, n)}, width)
	rng := rand.New(rand.NewSource(3))
	for ch := 0; ch < width; ch++ {
		for i := 0; i < n; i++ {
			a.SetPower(ch, i, -110+60*rng.Float64())
		}
	}
	for _, c := range []struct {
		name string
		a    *Aware
	}{{"live", a.Clone()}, {"sealed", a.Snapshot()}} {
		b.Run(c.name, func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				c.a.TopChannels(45)
			}
		})
	}
}

// TestRSSIQuantization pins CellByte and CellDBm: missing maps to
// MissingCell, readings clamp to [0, 254] dB above the floor, and every
// cell reads back as a value that rounds to itself.
func TestRSSIQuantization(t *testing.T) {
	if CellByte(stats.Missing) != MissingCell {
		t.Error("missing not encoded as 0xFF")
	}
	if got := CellDBm(0); got != gsm.NoiseFloorDBm {
		t.Errorf("byte 0 = %v", got)
	}
	if !stats.IsMissing(CellDBm(MissingCell)) {
		t.Error("0xFF not decoded as missing")
	}
	// Clamping: stronger than representable saturates at 254.
	if got := CellByte(500); got != 254 {
		t.Errorf("clamped high = %d", got)
	}
	if got := CellByte(-200); got != 0 {
		t.Errorf("clamped low = %d", got)
	}
	// Every cell reads back as a value that rounds to itself.
	for b := 0; b < 256; b++ {
		if got := CellByte(CellDBm(uint8(b))); got != uint8(b) {
			t.Errorf("cell %d reads back as %v, which rounds to %d", b, CellDBm(uint8(b)), got)
		}
	}
}
