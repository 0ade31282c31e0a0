package trajectory

import (
	"math"
	"testing"
	"testing/quick"

	"rups/internal/gsm"
	"rups/internal/noise"
	"rups/internal/stats"
)

// TestInterpolateIdempotent: running Interpolate twice equals running it
// once.
func TestInterpolateIdempotent(t *testing.T) {
	f := func(seed uint64, mRaw uint8) bool {
		m := int(mRaw)%40 + 2
		a := randomAware(seed, m)
		a.Interpolate()
		snapshot := a.Clone()
		a.Interpolate()
		for ch := 0; ch < a.Width(); ch++ {
			for i := 0; i < a.Len(); i++ {
				x, y := a.At(ch, i), snapshot.At(ch, i)
				if stats.IsMissing(x) != stats.IsMissing(y) {
					return false
				}
				if !stats.IsMissing(x) && x != y {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestInterpolateBounded: interpolated values never leave the range spanned
// by the observed values of their row.
func TestInterpolateBounded(t *testing.T) {
	f := func(seed uint64, mRaw uint8) bool {
		m := int(mRaw)%40 + 2
		a := randomAware(seed, m)
		lo := make([]float64, a.Width())
		hi := make([]float64, a.Width())
		for ch := 0; ch < a.Width(); ch++ {
			lo[ch], hi[ch] = math.Inf(1), math.Inf(-1)
			for i := 0; i < a.Len(); i++ {
				v := a.At(ch, i)
				if stats.IsMissing(v) {
					continue
				}
				if v < lo[ch] {
					lo[ch] = v
				}
				if v > hi[ch] {
					hi[ch] = v
				}
			}
		}
		a.Interpolate()
		for ch := 0; ch < a.Width(); ch++ {
			for i := 0; i < a.Len(); i++ {
				v := a.At(ch, i)
				if stats.IsMissing(v) {
					continue
				}
				if v < lo[ch]-1e-9 || v > hi[ch]+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPrefixUntilProperties: the prefix is a true prefix, monotone in t,
// and every retained mark is within the bound.
func TestPrefixUntilProperties(t *testing.T) {
	a := randomAware(5, 50)
	prevLen := -1
	for tm := a.Geo.Marks[0].T - 1; tm < a.Geo.Marks[49].T+2; tm += 0.9 {
		p := a.PrefixUntil(tm)
		if p.Len() < prevLen {
			t.Fatalf("prefix shrank at t=%v", tm)
		}
		prevLen = p.Len()
		for i := 0; i < p.Len(); i++ {
			if p.Geo.Marks[i].T > tm {
				t.Fatalf("mark %d at %v beyond t=%v", i, p.Geo.Marks[i].T, tm)
			}
			if p.Geo.Marks[i] != a.Geo.Marks[i] {
				t.Fatal("prefix reordered marks")
			}
		}
	}
	if got := a.PrefixUntil(math.Inf(1)).Len(); got != a.Len() {
		t.Errorf("full prefix = %d, want %d", got, a.Len())
	}
	if got := a.PrefixUntil(math.Inf(-1)).Len(); got != 0 {
		t.Errorf("empty prefix = %d", got)
	}
}

// TestBindWidthCustom checks multi-band widths flow through binding.
func TestBindWidthCustom(t *testing.T) {
	g := mkGeo(5, 0)
	a := BindWidth(g, []Sample{{T: 0.5, Ch: 200, RSSI: -70}}, 222)
	if a.Width() != 222 {
		t.Fatalf("width %d", a.Width())
	}
	if a.At(200, 0) != -70 {
		t.Error("wide-channel sample not bound")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for channel ≥ width")
		}
	}()
	BindWidth(g, []Sample{{T: 0.5, Ch: 222, RSSI: -70}}, 222)
}

// TestTopAudibleChannels checks the audibility trimming.
func TestTopAudibleChannels(t *testing.T) {
	a := NewAware(mkGeo(5, 0))
	// Three strong channels; everything else floor-ish silence.
	for i := 0; i < 5; i++ {
		a.SetPower(7, i, -60)
		a.SetPower(8, i, -65)
		a.SetPower(9, i, -70)
		for ch := 0; ch < gsm.NumChannels; ch++ {
			if ch != 7 && ch != 8 && ch != 9 {
				a.SetPower(ch, i, gsm.NoiseFloorDBm+noise.Uniform(1, uint64(ch), uint64(i)))
			}
		}
	}
	got := a.TopAudibleChannels(45, -107, 2)
	if len(got) != 3 {
		t.Fatalf("kept %d channels, want 3: %v", len(got), got)
	}
	if got[0] != 7 || got[1] != 8 || got[2] != 9 {
		t.Errorf("wrong channels: %v", got)
	}
	// minKeep floor: even if nothing is audible, keep the strongest few.
	b := NewAware(mkGeo(5, 0))
	for ch := 0; ch < gsm.NumChannels; ch++ {
		for i := 0; i < 5; i++ {
			b.SetPower(ch, i, gsm.NoiseFloorDBm)
		}
	}
	if got := b.TopAudibleChannels(45, -107, 8); len(got) != 8 {
		t.Errorf("minKeep not honoured: %d", len(got))
	}
}

// randomAware builds an m-mark GSM-width trajectory with a fifth of its
// cells missing and the rest drawn over 70 dB above the noise floor.
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
