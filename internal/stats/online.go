package stats

import "math"

// Online accumulates a running mean and variance using Welford's algorithm.
// The zero value is ready to use. It is used by long-running simulations to
// report moments without retaining every sample.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator. Missing values are ignored.
func (o *Online) Add(x float64) {
	if IsMissing(x) {
		return
	}
	if o.n == 0 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += float64(d * (x - o.mean))
}

// N returns the number of accumulated samples.
func (o *Online) N() int { return o.n }

// Mean returns the running mean (0 before any sample).
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the unbiased running variance (0 with fewer than two
// samples).
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// StdDev returns the running standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Min returns the smallest accumulated sample (0 before any sample).
func (o *Online) Min() float64 { return o.min }

// Max returns the largest accumulated sample (0 before any sample).
func (o *Online) Max() float64 { return o.max }

// Merge folds the other accumulator into o (parallel reduction), using
// Chan et al.'s pairwise update.
func (o *Online) Merge(p *Online) {
	if p.n == 0 {
		return
	}
	if o.n == 0 {
		*o = *p
		return
	}
	n := o.n + p.n
	d := p.mean - o.mean
	o.m2 += p.m2 + d*d*float64(o.n)*float64(p.n)/float64(n)
	o.mean += d * float64(p.n) / float64(n)
	if p.min < o.min {
		o.min = p.min
	}
	if p.max > o.max {
		o.max = p.max
	}
	o.n = n
}
