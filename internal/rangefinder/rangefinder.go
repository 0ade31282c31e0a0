// Package rangefinder simulates the SF02 laser rangefinder the paper mounts
// on the rear car for ground truth (§VI-A): centimetre-grade distance
// readings up to an effective range of 50 m, no reading beyond it.
package rangefinder

import (
	"math"

	"rups/internal/noise"
)

// MaxRangeM is the instrument's effective range.
const MaxRangeM = 50.0

// NoiseSigmaM is the per-reading measurement noise.
const NoiseSigmaM = 0.03

// Rangefinder is one mounted unit. It holds no mutable state, so it is
// safe for concurrent use: a reading's noise is keyed on the sim time it is
// taken at, never on how many readings came before it.
type Rangefinder struct {
	seed uint64
}

// New creates a rangefinder with its own noise stream.
func New(seed uint64) *Rangefinder {
	return &Rangefinder{seed: seed}
}

// Measure reads the true distance at sim time t; ok is false beyond the
// effective range (no return signal). The same (distance, t) always gives
// the same reading, whatever order or goroutine the readings are taken on.
func (r *Rangefinder) Measure(trueDist, t float64) (d float64, ok bool) {
	if trueDist < 0 || trueDist > MaxRangeM {
		return 0, false
	}
	d = trueDist + NoiseSigmaM*noise.Gaussian(r.seed, math.Float64bits(t))
	if d < 0 {
		d = 0
	}
	return d, true
}
