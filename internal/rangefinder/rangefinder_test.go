package rangefinder

import (
	"math"
	"testing"

	"rups/internal/stats"
)

func TestMeasureInRange(t *testing.T) {
	r := New(1)
	var errAcc stats.Online
	for i := 0; i < 1000; i++ {
		truth := float64(i%49) + 0.5
		d, ok := r.Measure(truth, float64(i)/10)
		if !ok {
			t.Fatalf("in-range measurement %v failed", truth)
		}
		errAcc.Add(math.Abs(d - truth))
	}
	if errAcc.Mean() > 3*NoiseSigmaM {
		t.Errorf("mean error %v too large", errAcc.Mean())
	}
}

func TestMeasureOutOfRange(t *testing.T) {
	r := New(2)
	if _, ok := r.Measure(MaxRangeM+1, 0); ok {
		t.Error("measured beyond effective range")
	}
	if _, ok := r.Measure(-1, 0); ok {
		t.Error("measured negative distance")
	}
	if _, ok := r.Measure(MaxRangeM, 0); !ok {
		t.Error("boundary measurement failed")
	}
}

func TestMeasureNonNegative(t *testing.T) {
	r := New(3)
	for i := 0; i < 500; i++ {
		if d, ok := r.Measure(0.001, float64(i)); ok && d < 0 {
			t.Fatal("negative reading")
		}
	}
}

// TestMeasureKeyedOnTime: a reading depends only on the distance and the
// sim time it is taken at — repeating it, or taking others in between,
// changes nothing.
func TestMeasureKeyedOnTime(t *testing.T) {
	r := New(4)
	first, _ := r.Measure(20, 12.5)
	for i := 0; i < 10; i++ {
		r.Measure(30, float64(i))
	}
	if again, _ := r.Measure(20, 12.5); again != first {
		t.Fatalf("same time read %v, then %v", first, again)
	}
	if other, _ := r.Measure(20, 12.6); other == first {
		t.Fatalf("readings at different times share noise: %v", other)
	}
}
