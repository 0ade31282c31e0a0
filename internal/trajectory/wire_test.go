package trajectory

import (
	"math"
	"testing"
	"testing/quick"

	"rups/internal/gsm"
	"rups/internal/noise"
	"rups/internal/stats"
)

func randomAware(seed uint64, m int) *Aware {
	g := Geo{Marks: make([]GeoMark, m)}
	for i := range g.Marks {
		g.Marks[i] = GeoMark{
			Theta: 2 * math.Pi * noise.Uniform(seed, uint64(i), 1),
			T:     1000 + float64(i)*1.3,
		}
	}
	a := NewAware(g)
	for ch := 0; ch < gsm.NumChannels; ch++ {
		for i := 0; i < m; i++ {
			u := noise.Uniform(seed, uint64(ch), uint64(i), 2)
			if u < 0.2 {
				continue // leave missing
			}
			a.SetPower(ch, i, gsm.NoiseFloorDBm+70*noise.Uniform(seed, uint64(ch), uint64(i), 3))
		}
	}
	return a
}

func TestWireRoundTrip(t *testing.T) {
	a := randomAware(1, 50)
	data, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != EncodedSize(50, gsm.NumChannels) {
		t.Fatalf("encoded size %d, want %d", len(data), EncodedSize(50, gsm.NumChannels))
	}
	var b Aware
	if err := b.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if b.Len() != a.Len() {
		t.Fatalf("length %d vs %d", b.Len(), a.Len())
	}
	for i := range a.Geo.Marks {
		if math.Abs(geoAngleDiff(b.Geo.Marks[i].Theta, a.Geo.Marks[i].Theta)) > 2*math.Pi/65535*1.01 {
			t.Fatalf("mark %d theta %v vs %v", i, b.Geo.Marks[i].Theta, a.Geo.Marks[i].Theta)
		}
		if math.Abs(b.Geo.Marks[i].T-a.Geo.Marks[i].T) > 1e-3 {
			t.Fatalf("mark %d time %v vs %v", i, b.Geo.Marks[i].T, a.Geo.Marks[i].T)
		}
	}
	for ch := 0; ch < a.Width(); ch++ {
		for i := 0; i < a.Len(); i++ {
			av, bv := a.At(ch, i), b.At(ch, i)
			if stats.IsMissing(av) != stats.IsMissing(bv) {
				t.Fatalf("missing mismatch at %d,%d", ch, i)
			}
			if !stats.IsMissing(av) && math.Abs(av-bv) > 0.51 {
				t.Fatalf("RSSI %v vs %v at %d,%d: beyond 1 dB quantization", av, bv, ch, i)
			}
		}
	}
}

func geoAngleDiff(a, b float64) float64 {
	d := math.Mod(a-b, 2*math.Pi)
	if d > math.Pi {
		d -= 2 * math.Pi
	}
	if d < -math.Pi {
		d += 2 * math.Pi
	}
	return d
}

func TestWireSizeMatchesPaper(t *testing.T) {
	// §V-B: a 1 km journey context is about 182 KB. Our encoding must land
	// in the same ballpark (within 25%).
	size := EncodedSize(1000, gsm.NumChannels)
	paper := 182 * 1024
	ratio := float64(size) / float64(paper)
	if ratio < 0.75 || ratio > 1.25 {
		t.Errorf("1 km context = %d bytes; paper says ~%d (ratio %.2f)", size, paper, ratio)
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	var a Aware
	cases := map[string][]byte{
		"empty":     nil,
		"short":     make([]byte, 5),
		"bad magic": make([]byte, headerSize),
	}
	for name, data := range cases {
		if err := a.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Corrupt a valid encoding's length field.
	good, _ := randomAware(2, 10).MarshalBinary()
	bad := append([]byte(nil), good...)
	bad = bad[:len(bad)-1]
	if err := a.UnmarshalBinary(bad); err == nil {
		t.Error("truncated: expected error")
	}
}

func TestWireRoundTripProperty(t *testing.T) {
	f := func(seed uint64, mRaw uint8) bool {
		m := int(mRaw)%60 + 1
		a := randomAware(seed, m)
		data, err := a.MarshalBinary()
		if err != nil {
			return false
		}
		var b Aware
		if err := b.UnmarshalBinary(data); err != nil {
			return false
		}
		// Re-encoding the decoded trajectory must be byte-identical
		// (quantization is idempotent).
		data2, err := b.MarshalBinary()
		if err != nil || len(data2) != len(data) {
			return false
		}
		for i := range data {
			if data[i] != data2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

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
