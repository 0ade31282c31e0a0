package core

import (
	"math"
	"testing"

	"rups/internal/geo"
	"rups/internal/gsm"
	"rups/internal/noise"
	"rups/internal/trajectory"
)

// findSYNs runs one sequential multi-SYN search (up to p.NumSYN points)
// on a fresh searcher.
func findSYNs(a, b *trajectory.Aware, p Params) []SYNPoint {
	s := NewSearcher(a, b, p)
	defer s.Release()
	return s.FindSYNs(p.NumSYN, Sequential)
}

// awareOfLen builds a minimal trajectory with n marks (1 m/s, all power
// missing) for index arithmetic tests.
func awareOfLen(n int) *trajectory.Aware {
	g := trajectory.Geo{Marks: make([]trajectory.GeoMark, n)}
	for i := range g.Marks {
		g.Marks[i] = trajectory.GeoMark{T: float64(i + 1)}
	}
	return trajectory.NewAware(g)
}

// fieldFixture builds one shared urban field for the integration tests.
var sharedField *gsm.Field

func field(t *testing.T) *gsm.Field {
	t.Helper()
	if sharedField == nil {
		area := gsm.Bounds{MinX: 0, MinY: 0, MaxX: 3000, MaxY: 3000}
		towers := gsm.GenerateTowers(41, area, gsm.ConstZone(gsm.Urban))
		sharedField = gsm.NewField(41, towers, gsm.ConstZone(gsm.Urban))
	}
	return sharedField
}

// awareOnRoad samples a dense GSM-aware trajectory along a straight
// eastbound road: metre i is at x = startX + i, traversed at time
// t0 + i/speed, with light measurement noise. The road is read through one
// path reader.
func awareOnRoad(f *gsm.Field, startX, y float64, n int, t0, speed float64, seed uint64) *trajectory.Aware {
	g := trajectory.Geo{Marks: make([]trajectory.GeoMark, n)}
	for i := range g.Marks {
		g.Marks[i] = trajectory.GeoMark{Theta: math.Pi / 2, T: t0 + float64(i+1)/speed}
	}
	a := trajectory.NewAware(g)
	read := f.Reader()
	for i := 0; i < n; i++ {
		pos := geo.Vec2{X: startX + float64(i), Y: y}
		tm := g.Marks[i].T
		for ch := 0; ch < gsm.NumChannels; ch++ {
			v := read(pos, ch, tm) + noise.Gaussian(seed, uint64(ch), uint64(i))
			if v < gsm.NoiseFloorDBm {
				v = gsm.NoiseFloorDBm
			}
			a.SetPower(ch, i, v)
		}
	}
	return a
}

// pairOnRoad builds a rear (A) and front (B) trajectory with the front
// vehicle gap metres ahead, both having recorded n metres of context. The
// front vehicle passed each location earlier in time.
func pairOnRoad(t *testing.T, gap float64, n int) (a, b *trajectory.Aware) {
	f := field(t)
	const speed = 12.0
	const y = 1500.0
	// Rear vehicle occupies [500, 500+n); front occupies [500+gap, ...).
	t0 := 1000.0
	a = awareOnRoad(f, 500, y, n, t0, speed, 7)
	b = awareOnRoad(f, 500+gap, y, n, t0-gap/speed+0.01, speed, 8)
	return a, b
}

func TestFindSYNRecoversAlignment(t *testing.T) {
	const gap = 25.0
	a, b := pairOnRoad(t, gap, 300)
	p := DefaultParams()
	s, ok := FindSYN(a, b, p)
	if !ok {
		t.Fatal("no SYN point found on overlapping trajectories")
	}
	if s.Score < p.Coherency {
		t.Errorf("score %v below threshold", s.Score)
	}
	got := s.RelativeDistance(a, b)
	if math.Abs(got-gap) > 3 {
		t.Errorf("relative distance = %v, want ~%v", got, gap)
	}
}

func TestFindSYNRejectsUnrelated(t *testing.T) {
	f := field(t)
	// Two far-apart parallel roads.
	a := awareOnRoad(f, 500, 800, 200, 1000, 12, 9)
	b := awareOnRoad(f, 500, 2400, 200, 1000, 12, 10)
	if s, ok := FindSYN(a, b, DefaultParams()); ok {
		t.Errorf("found SYN %+v between unrelated roads", s)
	}
}

func TestFindSYNDirectionSymmetry(t *testing.T) {
	// The double-sliding check must find the overlap regardless of which
	// vehicle is the query: swap roles and the distance negates.
	const gap = 30.0
	a, b := pairOnRoad(t, gap, 250)
	p := DefaultParams()
	s1, ok1 := FindSYN(a, b, p)
	s2, ok2 := FindSYN(b, a, p)
	if !ok1 || !ok2 {
		t.Fatal("SYN not found in both directions")
	}
	d1 := s1.RelativeDistance(a, b)
	d2 := s2.RelativeDistance(b, a)
	if math.Abs(d1+d2) > 4 {
		t.Errorf("asymmetric estimates: %v vs %v", d1, d2)
	}
}

func TestFindSYNShortContext(t *testing.T) {
	// §V-C: after a turn only a short context exists; the flexible window
	// still answers (relaxed threshold), though with lower confidence.
	const gap = 10.0
	a, b := pairOnRoad(t, gap, 40)
	p := DefaultParams()
	s, ok := FindSYN(a, b, p)
	if !ok {
		t.Fatal("short-context SYN not found")
	}
	if s.WindowLen >= p.WindowMeters {
		t.Errorf("window did not shrink: %d", s.WindowLen)
	}
	if got := s.RelativeDistance(a, b); math.Abs(got-gap) > 5 {
		t.Errorf("short-context distance = %v, want ~%v", got, gap)
	}
}

func TestFindSYNTooShort(t *testing.T) {
	a, b := pairOnRoad(t, 5, 6)
	if _, ok := FindSYN(a, b, DefaultParams()); ok {
		t.Error("found SYN below the minimum window")
	}
}

func TestFindSYNsMultipleSegments(t *testing.T) {
	const gap = 20.0
	a, b := pairOnRoad(t, gap, 400)
	p := DefaultParams()
	syns := findSYNs(a, b, p)
	if len(syns) < 3 {
		t.Fatalf("only %d SYN points from 5 segments", len(syns))
	}
	for _, s := range syns {
		if d := s.RelativeDistance(a, b); math.Abs(d-gap) > 5 {
			t.Errorf("segment estimate %v far from %v", d, gap)
		}
	}
}

func TestResolveAggregation(t *testing.T) {
	const gap = 35.0
	a, b := pairOnRoad(t, gap, 400)
	for _, mode := range []AggMode{SingleSYN, MeanAgg, SelectiveAgg} {
		p := DefaultParams()
		p.Aggregation = mode
		est, ok := Resolve(a, b, p)
		if !ok {
			t.Fatalf("%v: no estimate", mode)
		}
		if math.Abs(est.Distance-gap) > 4 {
			t.Errorf("%v: distance %v, want ~%v", mode, est.Distance, gap)
		}
		if est.Score < p.Coherency {
			t.Errorf("%v: score %v", mode, est.Score)
		}
		if len(est.SYNs) == 0 {
			t.Errorf("%v: no SYNs recorded", mode)
		}
	}
}

func TestResolveUnrelated(t *testing.T) {
	f := field(t)
	a := awareOnRoad(f, 500, 700, 150, 1000, 12, 11)
	b := awareOnRoad(f, 500, 2500, 150, 1000, 12, 12)
	if _, ok := Resolve(a, b, DefaultParams()); ok {
		t.Error("resolved a distance between unrelated vehicles")
	}
}

func TestSelectiveAggSuppressesOutlierSegment(t *testing.T) {
	// Corrupt the most recent segment of A (a passing truck shadowing the
	// receiver): the single-SYN estimate may be thrown off, while the
	// selective average over 5 segments stays accurate.
	const gap = 25.0
	a, b := pairOnRoad(t, gap, 400)
	for ch := 0; ch < gsm.NumChannels; ch += 2 {
		for i := a.Len() - 30; i < a.Len(); i++ {
			v := a.At(ch, i) - 25 // deep wideband shadowing
			if v < gsm.NoiseFloorDBm {
				v = gsm.NoiseFloorDBm
			}
			a.SetPower(ch, i, v)
		}
	}
	p := DefaultParams()
	p.Aggregation = SelectiveAgg
	est, ok := Resolve(a, b, p)
	if !ok {
		t.Fatal("no estimate under perturbation")
	}
	if math.Abs(est.Distance-gap) > 6 {
		t.Errorf("selective estimate %v, want ~%v", est.Distance, gap)
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{},
		{WindowMeters: 10, WindowChannels: 5, MaxContextMeters: 100},
		func() Params { p := DefaultParams(); p.MinWindowMeters = 0; return p }(),
		func() Params { p := DefaultParams(); p.NumSYN = 0; return p }(),
	}
	for i, p := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			p.validate()
		}()
	}
}

// TestParamsValidateIntegerWidths pins the integer-width bound at its
// boundary: a window or context of cellRunMax metres (n·254² < 2³¹) is
// accepted, one metre more is rejected, for either length.
func TestParamsValidateIntegerWidths(t *testing.T) {
	if cellRunMax*cellMax*cellMax > math.MaxInt32 || (cellRunMax+1)*cellMax*cellMax <= math.MaxInt32 {
		t.Fatalf("cellRunMax %d is not the longest run with n·254² < 2³¹", cellRunMax)
	}
	panics := func(p Params) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		p.validate()
		return false
	}
	for _, c := range []struct {
		name string
		set  func(p *Params, n int)
	}{
		{"MaxContextMeters", func(p *Params, n int) { p.MaxContextMeters = n }},
		{"WindowMeters", func(p *Params, n int) { p.WindowMeters, p.MaxContextMeters = n, cellRunMax }},
	} {
		p := DefaultParams()
		c.set(&p, cellRunMax)
		if panics(p) {
			t.Errorf("%s = %d rejected", c.name, cellRunMax)
		}
		p = DefaultParams()
		c.set(&p, cellRunMax+1)
		if !panics(p) {
			t.Errorf("%s = %d accepted", c.name, cellRunMax+1)
		}
	}
}

func TestAggModeString(t *testing.T) {
	if SingleSYN.String() == "unknown" || MeanAgg.String() == "unknown" ||
		SelectiveAgg.String() == "unknown" || AggMode(9).String() != "unknown" {
		t.Error("AggMode names wrong")
	}
}
