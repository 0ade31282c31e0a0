package noise

import (
	"fmt"
	"math"
	"testing"

	"rups/internal/stats"
)

func TestHashDeterministic(t *testing.T) {
	a := Hash(1, 2, 3)
	b := Hash(1, 2, 3)
	if a != b {
		t.Fatal("Hash not deterministic")
	}
	if Hash(1, 2, 3) == Hash(1, 3, 2) {
		t.Error("Hash insensitive to key order")
	}
	if Hash(1, 2) == Hash(2, 2) {
		t.Error("Hash insensitive to seed")
	}
}

func TestUniformRange(t *testing.T) {
	for i := uint64(0); i < 10000; i++ {
		u := Uniform(99, i)
		if u < 0 || u >= 1 {
			t.Fatalf("Uniform out of range: %v", u)
		}
	}
}

func TestUniformMoments(t *testing.T) {
	var o stats.Online
	for i := uint64(0); i < 50000; i++ {
		o.Add(Uniform(7, i))
	}
	if math.Abs(o.Mean()-0.5) > 0.01 {
		t.Errorf("Uniform mean = %v, want ~0.5", o.Mean())
	}
	if math.Abs(o.Variance()-1.0/12) > 0.005 {
		t.Errorf("Uniform variance = %v, want ~1/12", o.Variance())
	}
}

func TestGaussianMoments(t *testing.T) {
	var o stats.Online
	for i := uint64(0); i < 50000; i++ {
		o.Add(Gaussian(13, i))
	}
	if math.Abs(o.Mean()) > 0.02 {
		t.Errorf("Gaussian mean = %v, want ~0", o.Mean())
	}
	if math.Abs(o.Variance()-1) > 0.05 {
		t.Errorf("Gaussian variance = %v, want ~1", o.Variance())
	}
}

func TestField1DDeterministicAndStationary(t *testing.T) {
	f := Field1D{Seed: 5, Scale: 10}
	if f.At(3.7) != f.At(3.7) {
		t.Fatal("Field1D not deterministic")
	}
	var o stats.Online
	for i := 0; i < 20000; i++ {
		o.Add(f.At(float64(i) * 0.73))
	}
	if math.Abs(o.Mean()) > 0.1 {
		t.Errorf("Field1D mean = %v, want ~0", o.Mean())
	}
	if math.Abs(o.Variance()-1) > 0.15 {
		t.Errorf("Field1D variance = %v, want ~1", o.Variance())
	}
}

func TestField1DCorrelationStructure(t *testing.T) {
	f := Field1D{Seed: 21, Scale: 50}
	// Sample pairs at small and large separations; correlation must decay.
	near := make([]float64, 0, 2000)
	nearLag := make([]float64, 0, 2000)
	far := make([]float64, 0, 2000)
	farLag := make([]float64, 0, 2000)
	for i := 0; i < 2000; i++ {
		x := float64(i) * 137.3
		near = append(near, f.At(x))
		nearLag = append(nearLag, f.At(x+5)) // 0.1 × scale
		far = append(far, f.At(x))
		farLag = append(farLag, f.At(x+200)) // 4 × scale
	}
	rNear := stats.Pearson(near, nearLag)
	rFar := stats.Pearson(far, farLag)
	if rNear < 0.9 {
		t.Errorf("correlation at 0.1×scale = %v, want > 0.9", rNear)
	}
	if math.Abs(rFar) > 0.1 {
		t.Errorf("correlation at 4×scale = %v, want ~0", rFar)
	}
}

func TestField1DContinuity(t *testing.T) {
	f := Field1D{Seed: 9, Scale: 10}
	// No jumps across lattice boundaries.
	for _, x := range []float64{9.999999, 19.999999, -0.000001, -10.000001} {
		a := f.At(x)
		b := f.At(x + 2e-6)
		if math.Abs(a-b) > 1e-3 {
			t.Errorf("Field1D jump at %v: %v -> %v", x, a, b)
		}
	}
}

func TestField2DStatistics(t *testing.T) {
	f := Field2D{Seed: 31, Scale: 40}
	var o stats.Online
	for i := 0; i < 200; i++ {
		for j := 0; j < 100; j++ {
			o.Add(f.At(float64(i)*97.1, float64(j)*101.3))
		}
	}
	if math.Abs(o.Mean()) > 0.05 {
		t.Errorf("Field2D mean = %v", o.Mean())
	}
	if math.Abs(o.Variance()-1) > 0.1 {
		t.Errorf("Field2D variance = %v", o.Variance())
	}
}

func TestField2DCorrelationDecay(t *testing.T) {
	f := Field2D{Seed: 77, Scale: 50}
	var near, nearLag, far, farLag []float64
	for i := 0; i < 3000; i++ {
		x := float64(i) * 113.7
		y := float64(i%37) * 211.9
		near = append(near, f.At(x, y))
		nearLag = append(nearLag, f.At(x+5, y))
		far = append(far, f.At(x, y))
		farLag = append(farLag, f.At(x+250, y))
	}
	if r := stats.Pearson(near, nearLag); r < 0.85 {
		t.Errorf("2D correlation at 0.1×scale = %v", r)
	}
	if r := stats.Pearson(far, farLag); math.Abs(r) > 0.1 {
		t.Errorf("2D correlation at 5×scale = %v", r)
	}
}

func TestField2DContinuity(t *testing.T) {
	f := Field2D{Seed: 3, Scale: 25}
	for i := 0; i < 100; i++ {
		x := float64(i) * 24.999999
		a := f.At(x, 7)
		b := f.At(x+2e-6, 7)
		if math.Abs(a-b) > 1e-3 {
			t.Errorf("Field2D jump at x=%v", x)
		}
	}
}

func TestOctavesUnitVariance(t *testing.T) {
	o := Octaves{Base: Field2D{Seed: 8, Scale: 30}, N: 3}
	var acc stats.Online
	for i := 0; i < 20000; i++ {
		acc.Add(o.At(float64(i)*53.7, float64(i%61)*71.3))
	}
	if math.Abs(acc.Variance()-1) > 0.12 {
		t.Errorf("Octaves variance = %v, want ~1", acc.Variance())
	}
}

func TestOUStationaryStats(t *testing.T) {
	ou := OU{Tau: 10, Sigma: 2}
	var acc stats.Online
	// Burn in, then sample.
	for i := 0; i < 200000; i++ {
		v := ou.Step(1, Gaussian(55, uint64(i)))
		if i > 1000 {
			acc.Add(v)
		}
	}
	if math.Abs(acc.Mean()) > 0.2 {
		t.Errorf("OU mean = %v, want ~0", acc.Mean())
	}
	if math.Abs(acc.StdDev()-2) > 0.2 {
		t.Errorf("OU stddev = %v, want ~2", acc.StdDev())
	}
}

func TestOUMeanReversion(t *testing.T) {
	ou := OU{Tau: 5, Sigma: 1}
	ou.x = 100
	// With zero innovations the process must decay toward 0.
	for i := 0; i < 10; i++ {
		ou.Step(5, 0)
	}
	if math.Abs(ou.Value()) > 100*math.Exp(-9) {
		t.Errorf("OU did not revert: %v", ou.Value())
	}
}

func TestOUPanicsOnBadTau(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ou := OU{Tau: 0, Sigma: 1}
	ou.Step(1, 0)
}

// sameBits fails the test unless the memoized read equals the memo-free
// one bit for bit.
func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: memoized %v (%#x) != memo-free %v (%#x)",
			what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// memoPaths returns coordinate sequences that exercise every memo case:
// random points straddling the origin, single-cell steps both ways, long
// jumps, repeats and a backwards run, all in units of the lattice scale.
func memoPaths() map[string][]float64 {
	paths := map[string][]float64{}
	var random, steps, jumps, back []float64
	for k := uint64(0); k < 400; k++ {
		random = append(random, 40*(Uniform(0x3E, k)-0.5))
		// ±1-cell moves with a random in-cell offset, including repeats.
		cell := []float64{0, 1, 2, 1, 0, -1, -2, -1, -1, 0}[k%10]
		steps = append(steps, cell+Uniform(0x3F, k))
		jumps = append(jumps, float64(int64(k%7)*int64(k%3)-9)*17.5+Uniform(0x40, k))
		back = append(back, 3-0.037*float64(k))
	}
	paths["random"], paths["steps"], paths["jumps"], paths["backwards"] = random, steps, jumps, back
	return paths
}

func TestField1DMemoBitIdentical(t *testing.T) {
	for name, xs := range memoPaths() {
		for _, f := range []Field1D{{Seed: 4, Scale: 1}, {Seed: 5, Scale: 45}, {Seed: 6, Scale: 0.8}} {
			var m Memo1D
			for k, x := range xs {
				x *= f.Scale
				sameBits(t, fmt.Sprintf("%s %+v #%d x=%v", name, f, k, x), f.AtMemo(x, &m), f.At(x))
			}
		}
	}
	// One memo shared by fields that switch seed and scale every read.
	fields := []Field1D{{Seed: 1, Scale: 10}, {Seed: 2, Scale: 10}, {Seed: 1, Scale: 7}, {Seed: 1, Scale: 10}}
	var m Memo1D
	for k, x := range memoPaths()["steps"] {
		f := fields[k%len(fields)]
		sameBits(t, fmt.Sprintf("switch #%d", k), f.AtMemo(x*10, &m), f.At(x*10))
	}
	// A nil memo is the memo-free evaluation.
	f := Field1D{Seed: 9, Scale: 3}
	sameBits(t, "nil memo", f.AtMemo(-7.25, nil), f.At(-7.25))
}

func TestField2DMemoBitIdentical(t *testing.T) {
	paths := memoPaths()
	for name, xs := range paths {
		ys := paths["steps"]
		if name == "steps" {
			ys = paths["backwards"]
		}
		for _, f := range []Field2D{{Seed: 4, Scale: 1}, {Seed: 5, Scale: 60}, {Seed: 6, Scale: 0.8}} {
			var m Memo2D
			for k, x := range xs {
				x, y := x*f.Scale, ys[k]*f.Scale
				sameBits(t, fmt.Sprintf("%s %+v #%d (%v,%v)", name, f, k, x, y), f.AtMemo(x, y, &m), f.At(x, y))
			}
		}
	}
	// Single-cell steps in all eight directions, each from a fresh cell.
	f := Field2D{Seed: 12, Scale: 5}
	var m Memo2D
	for k := 0; k < 64; k++ {
		di, dj := float64(k%3-1), float64(k/3%3-1)
		x0, y0 := float64(k)*0.7-20, 9-float64(k)*0.45
		sameBits(t, fmt.Sprintf("from #%d", k), f.AtMemo(x0, y0, &m), f.At(x0, y0))
		x1, y1 := x0+di*f.Scale, y0+dj*f.Scale
		sameBits(t, fmt.Sprintf("step (%v,%v) #%d", di, dj, k), f.AtMemo(x1, y1, &m), f.At(x1, y1))
	}
	// One memo shared by fields that switch seed and scale every read.
	fields := []Field2D{{Seed: 1, Scale: 10}, {Seed: 2, Scale: 10}, {Seed: 1, Scale: 7}, {Seed: 1, Scale: 10}}
	m = Memo2D{}
	for k, x := range paths["steps"] {
		f := fields[k%len(fields)]
		x, y := x*10, paths["random"][k]
		sameBits(t, fmt.Sprintf("switch #%d", k), f.AtMemo(x, y, &m), f.At(x, y))
	}
	sameBits(t, "nil memo", f.AtMemo(-7.25, 3.5, nil), f.At(-7.25, 3.5))
}

// TestLatticeMemoReuses checks that the memo is really consulted: corners
// poisoned in the memo show up in a read of a neighbouring cell that shares
// them, and not in a read of a distant cell.
func TestLatticeMemoReuses(t *testing.T) {
	f2 := Field2D{Seed: 3, Scale: 1}
	var m2 Memo2D
	f2.AtMemo(0.5, 0.5, &m2)
	m2.g = [4]float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}
	if v := f2.AtMemo(1.5, 0.5, &m2); !math.IsNaN(v) {
		t.Errorf("step of one cell drew every corner again: %v", v)
	}
	sameBits(t, "jump after poison", f2.AtMemo(5.5, 0.5, &m2), f2.At(5.5, 0.5))

	f1 := Field1D{Seed: 3, Scale: 1}
	var m1 Memo1D
	f1.AtMemo(0.5, &m1)
	m1.g = [2]float64{math.NaN(), math.NaN()}
	if v := f1.AtMemo(-0.5, &m1); !math.IsNaN(v) {
		t.Errorf("step back of one cell drew every corner again: %v", v)
	}
	sameBits(t, "jump after poison", f1.AtMemo(9.5, &m1), f1.At(9.5))
	// A seed switch must not reuse the other seed's corners.
	m1.g = [2]float64{math.NaN(), math.NaN()}
	g := Field1D{Seed: 4, Scale: 1}
	sameBits(t, "seed switch after poison", g.AtMemo(9.5, &m1), g.At(9.5))
}
