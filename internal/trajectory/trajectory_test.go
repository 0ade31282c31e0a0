package trajectory

import (
	"math"
	"testing"

	"rups/internal/gsm"
	"rups/internal/stats"
)

// mkGeo builds a trajectory of n metres completed at 1 m/s starting at t0.
func mkGeo(n int, t0 float64) Geo {
	g := Geo{Marks: make([]GeoMark, n)}
	for i := range g.Marks {
		g.Marks[i] = GeoMark{Theta: 0.1 * float64(i%10), T: t0 + float64(i+1)}
	}
	return g
}

func TestGeoTail(t *testing.T) {
	g := mkGeo(10, 0)
	tail := g.Tail(3)
	if tail.Len() != 3 || tail.Marks[0] != g.Marks[7] {
		t.Errorf("Tail wrong: %+v", tail)
	}
	if g.Tail(99).Len() != 10 {
		t.Error("Tail larger than trajectory should return all")
	}
}

func TestBindAssignsByTime(t *testing.T) {
	g := mkGeo(5, 0) // metre i completed at t=i+1
	samples := []Sample{
		{T: 0.5, Ch: 3, RSSI: -70}, // during metre 0 (t ∈ (…,1])
		{T: 1.5, Ch: 3, RSSI: -80}, // during metre 1
		{T: 1.7, Ch: 4, RSSI: -60},
		{T: 99, Ch: 5, RSSI: -50}, // beyond the trajectory: dropped
	}
	a := Bind(g, samples)
	if got := a.At(3, 0); got != -70 {
		t.Errorf("Power[3][0] = %v", got)
	}
	if got := a.At(3, 1); got != -80 {
		t.Errorf("Power[3][1] = %v", got)
	}
	if got := a.At(4, 1); got != -60 {
		t.Errorf("Power[4][1] = %v", got)
	}
	if !stats.IsMissing(a.At(5, 4)) {
		t.Error("out-of-span sample was bound")
	}
	if !stats.IsMissing(a.At(3, 2)) {
		t.Error("unscanned cell not missing")
	}
}

func TestBindAveragesRepeats(t *testing.T) {
	g := mkGeo(3, 0)
	a := Bind(g, []Sample{
		{T: 0.2, Ch: 1, RSSI: -70},
		{T: 0.4, Ch: 1, RSSI: -80},
		{T: 0.6, Ch: 1, RSSI: -90},
	})
	if got := a.At(1, 0); got != -80 {
		t.Errorf("averaged repeat = %v, want -80", got)
	}
}

func TestBindPanicsOnBadChannel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Bind(mkGeo(2, 0), []Sample{{T: 0.1, Ch: gsm.NumChannels, RSSI: -70}})
}

func TestMissingFrac(t *testing.T) {
	g := mkGeo(4, 0)
	a := NewAware(g)
	if got := a.MissingFrac(); got != 1 {
		t.Errorf("all-missing frac = %v", got)
	}
	a.SetPower(0, 0, -70)
	want := 1 - 1.0/float64(gsm.NumChannels*4)
	if got := a.MissingFrac(); math.Abs(got-want) > 1e-12 {
		t.Errorf("frac = %v, want %v", got, want)
	}
}

func TestInterpolateRow(t *testing.T) {
	M := stats.Missing
	row := []float64{M, M, -70, M, M, M, -30, M, M}
	interpolateRow(row)
	want := []float64{-70, -70, -70, -60, -50, -40, -30, -30, -30}
	for i := range row {
		if math.Abs(row[i]-want[i]) > 1e-12 {
			t.Errorf("row[%d] = %v, want %v", i, row[i], want[i])
		}
	}
}

func TestInterpolateAllMissingStays(t *testing.T) {
	M := stats.Missing
	row := []float64{M, M, M}
	interpolateRow(row)
	for i := range row {
		if !stats.IsMissing(row[i]) {
			t.Errorf("row[%d] filled from nothing", i)
		}
	}
}

func TestInterpolateFullMatrix(t *testing.T) {
	g := mkGeo(10, 0)
	a := NewAware(g)
	for ch := 0; ch < gsm.NumChannels; ch++ {
		a.SetPower(ch, 0, -80)
		a.SetPower(ch, 9, -70)
	}
	a.Interpolate()
	if a.MissingFrac() != 0 {
		t.Errorf("missing after interpolate: %v", a.MissingFrac())
	}
	// Monotone ramp per row, stored as whole dB.
	if got := a.At(5, 5); math.Abs(got-math.Round(-80+10.0*5/9)) > 1e-9 {
		t.Errorf("interpolated value = %v", got)
	}
}

func TestWindowAndTail(t *testing.T) {
	g := mkGeo(10, 0)
	a := NewAware(g)
	a.SetPower(2, 7, -55)
	w := a.Window(5, 4)
	if len(w) != gsm.NumChannels || len(w[0]) != 4 {
		t.Fatalf("window shape %dx%d", len(w), len(w[0]))
	}
	if w[2][2] != -55 {
		t.Errorf("window content wrong: %v", w[2][2])
	}
	a.SetPower(2, 9, -44)
	tail := a.Tail(3)
	if tail.Len() != 3 || tail.At(2, 0) != -55 {
		t.Error("tail wrong")
	}
	if tail.At(2, 2) != -44 {
		t.Error("tail not aliasing the original")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad window")
		}
	}()
	a.Window(8, 5)
}

func TestTopChannels(t *testing.T) {
	g := mkGeo(5, 0)
	a := NewAware(g)
	// Make channels 10, 20, 30 strong in that order.
	for i := 0; i < 5; i++ {
		a.SetPower(10, i, -50)
		a.SetPower(20, i, -60)
		a.SetPower(30, i, -70)
	}
	top := a.TopChannels(3)
	if top[0] != 10 || top[1] != 20 || top[2] != 30 {
		t.Errorf("TopChannels = %v", top)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on k=0")
		}
	}()
	a.TopChannels(0)
}

func TestClone(t *testing.T) {
	a := NewAware(mkGeo(4, 0))
	a.SetPower(1, 1, -66)
	b := a.Clone()
	b.SetPower(1, 1, -99)
	b.Geo.Marks[0].Theta = 9
	if a.At(1, 1) != -66 || a.Geo.Marks[0].Theta == 9 {
		t.Error("Clone shares storage")
	}
}

func TestTimeSpan(t *testing.T) {
	a := NewAware(mkGeo(5, 100))
	t0, t1 := a.TimeSpan()
	if t0 != 101 || t1 != 105 {
		t.Errorf("TimeSpan = %v, %v", t0, t1)
	}
	empty := NewAware(Geo{})
	if t0, t1 := empty.TimeSpan(); t0 != 0 || t1 != 0 {
		t.Error("empty TimeSpan not zero")
	}
}
