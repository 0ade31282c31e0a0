package core

import (
	"math"
	"math/rand"
	"testing"

	"rups/internal/stats"
	"rups/internal/trajectory"
)

// plantedPair builds two synthetic trajectories sharing a common stretch:
// B is A shifted by `gap` indices plus noise — a pure-algorithm fixture
// independent of the radio simulation.
func plantedPair(seed int64, length, gap int, noiseSigma float64) (*trajectory.Aware, *trajectory.Aware) {
	rng := rand.New(rand.NewSource(seed))
	// Shared "world" signal per channel over an extended road.
	world := make([][]float64, 64)
	for ch := range world {
		world[ch] = make([]float64, length+gap)
		v := -80 + 20*rng.NormFloat64()
		for i := range world[ch] {
			// A bounded random walk gives spatial structure at several
			// scales.
			v += 2 * rng.NormFloat64()
			if v < -110 {
				v = -110
			}
			if v > -45 {
				v = -45
			}
			world[ch][i] = v
		}
	}
	build := func(offset int, t0 float64, rng *rand.Rand) *trajectory.Aware {
		g := trajectory.Geo{Marks: make([]trajectory.GeoMark, length)}
		for i := range g.Marks {
			g.Marks[i] = trajectory.GeoMark{T: t0 + float64(i)}
		}
		a := trajectory.NewAwareWidth(g, 64)
		for ch := 0; ch < 64; ch++ {
			for i := 0; i < length; i++ {
				a.SetPower(ch, i, world[ch][offset+i]+noiseSigma*rng.NormFloat64())
			}
		}
		return a
	}
	a := build(0, 1000, rand.New(rand.NewSource(seed+1)))
	b := build(gap, 998, rand.New(rand.NewSource(seed+2)))
	return a, b
}

// TestFindSYNPropertyRecoversGap: over random planted pairs, the resolved
// relative distance recovers the planted gap.
func TestFindSYNPropertyRecoversGap(t *testing.T) {
	p := DefaultParams()
	p.WindowChannels = 40
	for trial := int64(0); trial < 15; trial++ {
		gap := int(5 + trial*7%80)
		a, b := plantedPair(trial, 300, gap, 1.0)
		s, ok := FindSYN(a, b, p)
		if !ok {
			t.Fatalf("trial %d: no SYN for planted gap %d", trial, gap)
		}
		got := s.RelativeDistance(a, b)
		if math.Abs(got-float64(gap)) > 2 {
			t.Errorf("trial %d: recovered %v, want %d", trial, got, gap)
		}
		// SYN indices must lie inside the trajectories.
		if s.IdxA < 0 || s.IdxA >= a.Len() || s.IdxB < 0 || s.IdxB >= b.Len() {
			t.Fatalf("trial %d: SYN indices out of range: %+v", trial, s)
		}
	}
}

// TestFindSYNPropertyAntisymmetric: swapping the roles negates the
// estimate (within SYN quantization).
func TestFindSYNPropertyAntisymmetric(t *testing.T) {
	p := DefaultParams()
	p.WindowChannels = 40
	for trial := int64(20); trial < 30; trial++ {
		a, b := plantedPair(trial, 250, 30, 1.0)
		s1, ok1 := FindSYN(a, b, p)
		s2, ok2 := FindSYN(b, a, p)
		if !ok1 || !ok2 {
			t.Fatalf("trial %d: SYN missing in a direction", trial)
		}
		d1 := s1.RelativeDistance(a, b)
		d2 := s2.RelativeDistance(b, a)
		if math.Abs(d1+d2) > 3 {
			t.Errorf("trial %d: %v vs %v not antisymmetric", trial, d1, d2)
		}
	}
}

// TestFindSYNRespectsLocalityBound: estimates never exceed MaxRelDistM.
func TestFindSYNRespectsLocalityBound(t *testing.T) {
	p := DefaultParams()
	p.WindowChannels = 40
	p.MaxRelDistM = 40
	for trial := int64(40); trial < 50; trial++ {
		a, b := plantedPair(trial, 300, 25, 1.5)
		syns := findSYNs(a, b, p)
		for _, s := range syns {
			if d := math.Abs(s.RelativeDistance(a, b)); d > float64(p.MaxRelDistM)+1 {
				t.Fatalf("trial %d: estimate %v beyond locality bound", trial, d)
			}
		}
	}
}

// TestFindSYNNoiseDegradesGracefully: raising the per-sample noise must not
// produce wrong confident answers — either the SYN is found near the truth
// or nothing passes the threshold.
func TestFindSYNNoiseDegradesGracefully(t *testing.T) {
	p := DefaultParams()
	p.WindowChannels = 40
	for _, sigma := range []float64{0.5, 2, 6, 12} {
		found, wrong := 0, 0
		for trial := int64(60); trial < 70; trial++ {
			a, b := plantedPair(trial, 250, 20, sigma)
			if s, ok := FindSYN(a, b, p); ok {
				found++
				if math.Abs(s.RelativeDistance(a, b)-20) > 5 {
					wrong++
				}
			}
		}
		if wrong > found/4 {
			t.Errorf("sigma %v: %d/%d found SYNs are wrong", sigma, wrong, found)
		}
	}
}

// TestResolveAggregationBounds: the aggregate always lies within the span
// of the per-SYN estimates.
func TestResolveAggregationBounds(t *testing.T) {
	p := DefaultParams()
	p.WindowChannels = 40
	for trial := int64(80); trial < 90; trial++ {
		a, b := plantedPair(trial, 350, 35, 2.0)
		est, ok := Resolve(a, b, p)
		if !ok {
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range est.SYNs {
			d := s.RelativeDistance(a, b)
			lo = math.Min(lo, d)
			hi = math.Max(hi, d)
		}
		if est.Distance < lo-1e-9 || est.Distance > hi+1e-9 {
			t.Fatalf("trial %d: aggregate %v outside [%v, %v]", trial, est.Distance, lo, hi)
		}
	}
}

// TestScorerRangeInvariant: every window score stays within Eq. 2's
// range [-2, 2].
func TestScorerRangeInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := randRows(rng, 9, 30)
	tgt := randRows(rng, 9, 90)
	idxRef, idxTgt := newMatrixIndex(ref), newMatrixIndex(tgt)
	s := newSegScorer(idxRef, idxTgt, 0, 30, false)
	for j := 0; j < s.positions(); j++ {
		if sc := s.scoreAt(j); sc < -2-1e-9 || sc > 2+1e-9 {
			t.Fatalf("score %v out of range at %d", sc, j)
		}
	}
	s.release()
	// And within [-1, 1] with the column term ablated.
	s = newSegScorer(idxRef, idxTgt, 0, 30, true)
	for j := 0; j < s.positions(); j++ {
		if sc := s.scoreAt(j); sc < -1-1e-9 || sc > 1+1e-9 {
			t.Fatalf("noCol score %v out of range at %d", sc, j)
		}
	}
	s.release()
}

// TestMissingTolerantSearch: a planted pair with missing cells still
// resolves via the slow path.
func TestMissingTolerantSearch(t *testing.T) {
	a, b := plantedPair(99, 250, 15, 1.0)
	rng := rand.New(rand.NewSource(123))
	for ch := 0; ch < a.Width(); ch++ {
		for i := 0; i < a.Len(); i++ {
			if rng.Float64() < 0.25 {
				a.SetPower(ch, i, stats.Missing)
			}
			if rng.Float64() < 0.25 {
				b.SetPower(ch, i, stats.Missing)
			}
		}
	}
	p := DefaultParams()
	p.WindowChannels = 40
	s, ok := FindSYN(a, b, p)
	if !ok {
		t.Fatal("no SYN with 25% missing cells")
	}
	if d := s.RelativeDistance(a, b); math.Abs(d-15) > 3 {
		t.Errorf("missing-tolerant estimate %v, want ~15", d)
	}
}

// TestHeadingGateRejectsOpposing: a planted pair whose headings disagree
// (an oncoming vehicle on the same road) is rejected by the gate and
// accepted without it.
func TestHeadingGateRejectsOpposing(t *testing.T) {
	a, b := plantedPair(111, 250, 20, 1.0)
	// B drives the opposite direction: headings differ by π.
	for i := range b.Geo.Marks {
		b.Geo.Marks[i].Theta = math.Pi
	}
	p := DefaultParams()
	p.WindowChannels = 40
	if _, ok := FindSYN(a, b, p); ok {
		t.Error("heading gate failed to reject an opposing vehicle")
	}
	p.HeadingGateRad = 0 // gate off: the power match alone accepts it
	if _, ok := FindSYN(a, b, p); !ok {
		t.Error("without the gate the power match should still fire")
	}
}

// TestHeadingGateTolerantToNoise: realistic compass noise (±5°) must not
// trip the gate.
func TestHeadingGateTolerantToNoise(t *testing.T) {
	a, b := plantedPair(112, 250, 20, 1.0)
	rng := rand.New(rand.NewSource(5))
	for i := range a.Geo.Marks {
		a.Geo.Marks[i].Theta = 0.09 * rng.NormFloat64()
	}
	for i := range b.Geo.Marks {
		b.Geo.Marks[i].Theta = 0.09 * rng.NormFloat64()
	}
	p := DefaultParams()
	p.WindowChannels = 40
	if _, ok := FindSYN(a, b, p); !ok {
		t.Error("gate tripped on compass noise")
	}
}
