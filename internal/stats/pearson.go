// Package stats implements the statistical machinery of the paper — the
// Pearson power-vector correlation (Eq. 1), the trajectory correlation
// coefficient (Eq. 2), the relative-change metric (Eq. 3) — along with the
// descriptive statistics the evaluation harness reports: empirical CDFs,
// quantiles, trimmed/selective means, and confidence intervals.
package stats

import (
	"fmt"
	"math"
)

// Missing marks an absent RSSI measurement (an unscanned channel at a
// location) inside a power vector or trajectory row. IsMissing must be used
// to test for it, since Missing is a NaN.
var Missing = math.NaN()

// IsMissing reports whether v marks a missing measurement.
func IsMissing(v float64) bool { return math.IsNaN(v) }

// Pearson returns the Pearson correlation coefficient between x and y
// (paper Eq. 1). Entries where either vector is Missing are skipped.
//
// The coefficient is undefined when fewer than two valid pairs remain or
// when either vector is constant over the valid pairs; Pearson returns 0 in
// those cases, which the SYN search treats as "no evidence of coherence".
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: Pearson length mismatch %d vs %d", len(x), len(y)))
	}
	var n int
	var sx, sy float64
	for i := range x {
		if IsMissing(x[i]) || IsMissing(y[i]) {
			continue
		}
		n++
		sx += x[i]
		sy += y[i]
	}
	if n < 2 {
		return 0
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxy, sxx, syy float64
	for i := range x {
		if IsMissing(x[i]) || IsMissing(y[i]) {
			continue
		}
		dx, dy := x[i]-mx, y[i]-my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	// A non-positive sum of squares means the vector is constant over the
	// valid pairs (the ordered comparison also rejects any rounding or
	// overflow artefact that could turn the ratio into a NaN).
	if sxx <= 0 || syy <= 0 {
		return 0
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Guard against tiny floating point excursions outside [-1, 1].
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r
}

// TrajCorr returns the trajectory correlation coefficient of paper Eq. 2
// between two GSM-aware trajectories given as channel-major matrices:
// a[i][j] is the RSSI of channel i at metre j. Both trajectories must have
// the same width (channel count) and length.
//
// The coefficient is the mean of the per-channel correlations plus the
// correlation of the per-location channel averages; its range is therefore
// [-2, 2]. The second term is what lets the coherency threshold exceed 1
// (the paper uses 1.2).
func TrajCorr(a, b [][]float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: TrajCorr width mismatch %d vs %d", len(a), len(b)))
	}
	n := len(a)
	if n == 0 {
		return 0
	}
	m := len(a[0])
	sum := 0.0
	for i := 0; i < n; i++ {
		if len(a[i]) != m || len(b[i]) != m {
			panic("stats: TrajCorr ragged trajectory matrix")
		}
		sum += Pearson(a[i], b[i])
	}
	return sum/float64(n) + Pearson(columnMeans(a), columnMeans(b))
}

// columnMeans returns, for each location j, the mean RSSI across channels,
// skipping missing entries. A column with no valid entries yields Missing.
func columnMeans(a [][]float64) []float64 {
	m := len(a[0])
	out := make([]float64, m)
	for j := 0; j < m; j++ {
		var s float64
		var c int
		for i := range a {
			if v := a[i][j]; !IsMissing(v) {
				s += v
				c++
			}
		}
		if c == 0 {
			out[j] = Missing
		} else {
			out[j] = s / float64(c)
		}
	}
	return out
}

// RelativeChange returns the relative change d = ‖x−x′‖/‖x‖ of paper Eq. 3
// between two power vectors. Missing entries in either vector are skipped.
// If x has zero norm over the valid entries, RelativeChange returns 0.
func RelativeChange(x, xp []float64) float64 {
	if len(x) != len(xp) {
		panic(fmt.Sprintf("stats: RelativeChange length mismatch %d vs %d", len(x), len(xp)))
	}
	var diff2, norm2 float64
	for i := range x {
		if IsMissing(x[i]) || IsMissing(xp[i]) {
			continue
		}
		d := x[i] - xp[i]
		diff2 += float64(d * d)
		norm2 += float64(x[i] * x[i])
	}
	if norm2 <= 0 {
		return 0
	}
	return math.Sqrt(diff2 / norm2)
}
