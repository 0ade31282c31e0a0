package scanner

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"rups/internal/city"
	"rups/internal/fm"
	"rups/internal/gsm"
	"rups/internal/mobility"
	"rups/internal/noise"
	"rups/internal/trajectory"
)

type env struct {
	city  *city.City
	field *gsm.Field
	trace *mobility.Trace
}

var cachedEnv *env

func getEnv(t testing.TB) *env {
	t.Helper()
	if cachedEnv != nil {
		return cachedEnv
	}
	c := city.Generate(city.DefaultConfig(31))
	f := gsm.NewField(32, gsm.GenerateTowers(32, c.Bounds(), c), c)
	road := c.RoadsOfClass(city.FourLaneUrban)[0]
	tr := mobility.Drive(mobility.DriveConfig{
		Road: road, Lane: 0, StartS: 10, Distance: 400, Seed: 33,
	})
	cachedEnv = &env{city: c, field: f, trace: tr}
	return cachedEnv
}

func TestCycleTimeArithmetic(t *testing.T) {
	// One radio, full band: 194 × 15 ms = 2.91 s (paper: "all 194 channels
	// ... within 2.85 seconds" — same ballpark by construction).
	c1 := DefaultConfig(1, 1, FrontPanel)
	if got := c1.CycleS(); math.Abs(got-2.91) > 0.1 {
		t.Errorf("1-radio cycle = %v s", got)
	}
	// §V-C: 90 channels over 10 radios = 9 × 15 ms = 135 ms.
	sub := make([]int, 90)
	for i := range sub {
		sub[i] = i
	}
	c10 := DefaultConfig(1, 10, FrontPanel)
	c10.Channels = sub
	if got := c10.CycleS(); math.Abs(got-0.135) > 1e-9 {
		t.Errorf("10-radio 90-channel cycle = %v s, want 0.135", got)
	}
}

func TestScanCoverage(t *testing.T) {
	e := getEnv(t)
	samples := Scan(e.trace, e.field, DefaultConfig(5, 4, FrontPanel))
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	seen := map[int]bool{}
	prevT := -math.MaxFloat64
	for _, s := range samples {
		if s.T < prevT {
			t.Fatal("samples not time ordered")
		}
		prevT = s.T
		if s.RSSI < gsm.NoiseFloorDBm || s.RSSI > gsm.SaturationDBm {
			t.Fatalf("sample RSSI %v out of range", s.RSSI)
		}
		seen[s.Ch] = true
	}
	if len(seen) != gsm.NumChannels {
		t.Errorf("scanned %d distinct channels, want %d", len(seen), gsm.NumChannels)
	}
}

func TestMoreRadiosFewerMissing(t *testing.T) {
	e := getEnv(t)
	frac := func(radios int) float64 {
		samples := Scan(e.trace, e.field, DefaultConfig(6, radios, FrontPanel))
		g := geoFromTruth(e.trace)
		a := trajectory.Bind(g, samples)
		return a.MissingFrac()
	}
	f1, f4 := frac(1), frac(4)
	if f4 >= f1 {
		t.Errorf("missing fraction did not shrink with radios: 1→%v, 4→%v", f1, f4)
	}
	if f1 < 0.3 {
		t.Errorf("single radio misses only %v of cells; expected severe gaps at driving speed", f1)
	}
}

// geoFromTruth builds the per-metre geographical trajectory from ground
// truth (perfect dead reckoning), for isolating scanner behaviour.
func geoFromTruth(tr *mobility.Trace) trajectory.Geo {
	var g trajectory.Geo
	s0 := tr.States[0].S
	next := 1.0
	for _, st := range tr.States {
		for st.S-s0 >= next {
			g.Marks = append(g.Marks, trajectory.GeoMark{Theta: st.Heading, T: st.T})
			next++
		}
	}
	return g
}

func TestCentralPlacementWeaker(t *testing.T) {
	e := getEnv(t)
	front := Scan(e.trace, e.field, DefaultConfig(7, 4, FrontPanel))
	central := Scan(e.trace, e.field, DefaultConfig(7, 4, CabinCenter))
	if len(front) != len(central) {
		t.Fatalf("sample counts differ: %d vs %d", len(front), len(central))
	}
	var fSum, cSum float64
	for i := range front {
		fSum += front[i].RSSI
		cSum += central[i].RSSI
	}
	// Central placement reads several dB weaker on average. (Floor clamping
	// compresses the difference below the nominal 7 dB.)
	if fSum/float64(len(front))-cSum/float64(len(central)) < 2 {
		t.Errorf("central placement not measurably weaker: front mean %v, central mean %v",
			fSum/float64(len(front)), cSum/float64(len(central)))
	}
}

func TestScanDeterministic(t *testing.T) {
	e := getEnv(t)
	a := Scan(e.trace, e.field, DefaultConfig(8, 2, FrontPanel))
	b := Scan(e.trace, e.field, DefaultConfig(8, 2, FrontPanel))
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestScanChannelSubset(t *testing.T) {
	e := getEnv(t)
	cfg := DefaultConfig(9, 2, FrontPanel)
	cfg.Channels = []int{5, 10, 15}
	samples := Scan(e.trace, e.field, cfg)
	for _, s := range samples {
		if s.Ch != 5 && s.Ch != 10 && s.Ch != 15 {
			t.Fatalf("unexpected channel %d", s.Ch)
		}
	}
}

func TestScanPanics(t *testing.T) {
	e := getEnv(t)
	for name, cfg := range map[string]Config{
		"no radios":   {Radios: 0},
		"bad channel": {Radios: 1, Channels: []int{999}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			Scan(e.trace, e.field, cfg)
		}()
	}
}

func TestPlacementString(t *testing.T) {
	if FrontPanel.String() != "front" || CabinCenter.String() != "central" {
		t.Error("placement names wrong")
	}
	if Placement(9).String() != "unknown" {
		t.Error("unknown placement name")
	}
}

func TestMultiSourceDispatch(t *testing.T) {
	e := getEnv(t)
	f := fm.NewField(9, gsm.Bounds{MinX: -3000, MinY: -3000, MaxX: 3000, MaxY: 3000}, gsm.ConstZone(gsm.Urban))
	m := NewMultiSource(e.field, f)
	if m.Channels() != gsm.NumChannels+fm.NumStations {
		t.Fatalf("Channels = %d", m.Channels())
	}
	pos := e.trace.States[0].Pos
	// GSM part dispatches to the GSM field.
	if got, want := m.Sample(pos, 7, 3), e.field.Sample(pos, 7, 3); got != want {
		t.Errorf("GSM dispatch: %v vs %v", got, want)
	}
	// FM part dispatches with the offset removed.
	if got, want := m.Sample(pos, gsm.NumChannels+4, 3), f.Sample(pos, 4, 3); got != want {
		t.Errorf("FM dispatch: %v vs %v", got, want)
	}
	for name, fn := range map[string]func(){
		"out of range": func() { m.Sample(pos, m.Channels(), 0) },
		"negative":     func() { m.Sample(pos, -1, 0) },
		"empty":        func() { NewMultiSource() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestScanMultiSourceCoverage(t *testing.T) {
	e := getEnv(t)
	f := fm.NewField(10, gsm.Bounds{MinX: -3000, MinY: -3000, MaxX: 3000, MaxY: 3000}, gsm.ConstZone(gsm.Urban))
	m := NewMultiSource(e.field, f)
	samples := Scan(e.trace, m, DefaultConfig(11, 4, FrontPanel))
	seenFM := false
	for _, s := range samples {
		if s.Ch >= gsm.NumChannels {
			seenFM = true
			if s.Ch >= m.Channels() {
				t.Fatalf("channel %d beyond multi-source width", s.Ch)
			}
		}
	}
	if !seenFM {
		t.Error("multi-source scan never touched the FM band")
	}
}

// referenceScan is Scan as first written: one memo-free Source.Sample per
// reading and a reflection-based stable sort on (T, then Ch). Scan must
// reproduce it exactly.
func referenceScan(tr *mobility.Trace, f Source, cfg Config) []trajectory.Sample {
	channels := cfg.Channels
	if channels == nil {
		for ch := 0; ch < f.Channels(); ch++ {
			channels = append(channels, ch)
		}
	}
	loss, noiseMul := placementEffect(cfg.Placement)
	sigma := cfg.NoiseSigmaDB * noiseMul
	t0, tEnd := tr.States[0].T, tr.States[len(tr.States)-1].T
	var samples []trajectory.Sample
	for r := 0; r < cfg.Radios; r++ {
		var mine []int
		for i := r; i < len(channels); i += cfg.Radios {
			mine = append(mine, channels[i])
		}
		if len(mine) == 0 {
			continue
		}
		k := uint64(0)
		for t := t0; t <= tEnd; t += DwellS {
			ch := mine[int(k)%len(mine)]
			v := f.Sample(tr.At(t).Pos, ch, t) - loss +
				sigma*noise.Gaussian(cfg.Seed, uint64(r), k, 0x5CA9)
			if v < gsm.NoiseFloorDBm {
				v = gsm.NoiseFloorDBm
			}
			samples = append(samples, trajectory.Sample{T: t, Ch: ch, RSSI: v})
			k++
		}
	}
	sort.SliceStable(samples, func(i, j int) bool {
		if samples[i].T < samples[j].T {
			return true
		}
		if samples[i].T > samples[j].T {
			return false
		}
		return samples[i].Ch < samples[j].Ch
	})
	return samples
}

func TestScanMatchesReference(t *testing.T) {
	e := getEnv(t)
	fmf := fm.NewField(12, gsm.Bounds{MinX: -3000, MinY: -3000, MaxX: 3000, MaxY: 3000}, e.city)
	multi := NewMultiSource(e.field, fmf)
	subset := DefaultConfig(13, 3, CabinCenter)
	subset.Channels = []int{190, 3, 77, 4, 120, 5, 6, 61}
	for name, c := range map[string]struct {
		src Source
		cfg Config
	}{
		"1 radio":     {e.field, DefaultConfig(14, 1, FrontPanel)},
		"3 radios":    {e.field, DefaultConfig(15, 3, FrontPanel)},
		"4 radios":    {e.field, DefaultConfig(16, 4, CabinCenter)},
		"subset":      {e.field, subset},
		"gsm+fm":      {multi, DefaultConfig(17, 4, FrontPanel)},
		"fm+gsm":      {NewMultiSource(fmf, e.field), DefaultConfig(18, 3, FrontPanel)},
		"fm":          {fmf, DefaultConfig(19, 2, FrontPanel)},
		"multi reuse": {multi, subset},
	} {
		got, want := Scan(e.trace, c.src, c.cfg), referenceScan(e.trace, c.src, c.cfg)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Scan differs from the reference (%d vs %d samples)", name, len(got), len(want))
		}
	}
}

// BenchmarkScan measures one 4-radio, full-band scan of a 400 m drive
// through a city: the radio-bank share of sim.ExecuteConvoy.
func BenchmarkScan(b *testing.B) {
	e := getEnv(b)
	cfg := DefaultConfig(5, 4, FrontPanel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Scan(e.trace, e.field, cfg)
	}
}
