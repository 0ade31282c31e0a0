package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, skipping Missing entries. The mean
// of an empty (or all-missing) slice is 0.
func Mean(xs []float64) float64 {
	var s float64
	var n int
	for _, x := range xs {
		if IsMissing(x) {
			continue
		}
		s += x
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// MeanOK returns the arithmetic mean of xs, skipping Missing entries, and
// reports whether any valid value contributed. Use it instead of comparing
// Mean's result against the 0 fallback: a genuine mean of exactly 0 and
// "no data" are different answers.
func MeanOK(xs []float64) (mean float64, ok bool) {
	var s float64
	var n int
	for _, x := range xs {
		if IsMissing(x) {
			continue
		}
		s += x
		n++
	}
	if n == 0 {
		return 0, false
	}
	return s / float64(n), true
}

// ApproxEqual reports whether a and b agree within the absolute tolerance
// eps. It is the sanctioned alternative to ==/!= on floating-point values
// (see the floatcmp analyzer in cmd/rups-lint). NaNs are never
// approximately equal to anything, including each other.
func ApproxEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

// Variance returns the unbiased sample variance of xs, skipping Missing
// entries. Fewer than two valid values yield 0.
func Variance(xs []float64) float64 {
	m := Mean(xs)
	var s float64
	var n int
	for _, x := range xs {
		if IsMissing(x) {
			continue
		}
		d := x - m
		s += float64(d * d)
		n++
	}
	if n < 2 {
		return 0
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MeanCI returns the sample mean of xs and the half-width of its 95%
// confidence interval under the normal approximation (1.96·σ/√n), matching
// the error bars of the paper's Fig. 11.
func MeanCI(xs []float64) (mean, halfWidth float64) {
	var valid []float64
	for _, x := range xs {
		if !IsMissing(x) {
			valid = append(valid, x)
		}
	}
	if len(valid) == 0 {
		return 0, 0
	}
	mean = Mean(valid)
	if len(valid) < 2 {
		return mean, 0
	}
	halfWidth = 1.96 * StdDev(valid) / math.Sqrt(float64(len(valid)))
	return mean, halfWidth
}

// SelectiveMean implements the paper's "selective average" (§VI-C): the
// maximum and the minimum estimates are discarded and the rest are averaged.
// With fewer than three values it degrades to the plain mean, which is the
// only sensible behaviour for the short-context case.
func SelectiveMean(xs []float64) float64 {
	var valid []float64
	for _, x := range xs {
		if !IsMissing(x) {
			valid = append(valid, x)
		}
	}
	if len(valid) < 3 {
		return Mean(valid)
	}
	minI, maxI := 0, 0
	for i, v := range valid {
		if v < valid[minI] {
			minI = i
		}
		if v > valid[maxI] {
			maxI = i
		}
	}
	var s float64
	var n int
	for i, v := range valid {
		if i == minI || i == maxI {
			continue
		}
		s += v
		n++
	}
	if n == 0 {
		// All values identical: min and max indices coincide or everything
		// was dropped; fall back to the plain mean.
		return Mean(valid)
	}
	return s / float64(n)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It panics on an empty input or a
// q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile q=%v out of [0,1]", q))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := float64(q * float64(len(s)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[hi]*frac)
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample xs, skipping Missing
// entries. It panics if no valid values remain.
func NewCDF(xs []float64) *CDF {
	var s []float64
	for _, x := range xs {
		if !IsMissing(x) {
			s = append(s, x)
		}
	}
	if len(s) == 0 {
		panic("stats: NewCDF with no valid values")
	}
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X ≤ x).
func (c *CDF) At(x float64) float64 {
	// First index with sorted[i] > x.
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile of the sample.
func (c *CDF) Quantile(q float64) float64 { return Quantile(c.sorted, q) }

// Mean returns the sample mean.
func (c *CDF) Mean() float64 { return Mean(c.sorted) }

// N returns the sample size.
func (c *CDF) N() int { return len(c.sorted) }

// Series evaluates the CDF at n evenly spaced points spanning [min, max] and
// returns the (x, P(X≤x)) pairs — the plot series for the paper's CDF
// figures.
func (c *CDF) Series(min, max float64, n int) (xs, ps []float64) {
	if n < 2 {
		panic("stats: CDF.Series needs n ≥ 2")
	}
	xs = make([]float64, n)
	ps = make([]float64, n)
	for i := 0; i < n; i++ {
		x := min + (max-min)*float64(i)/float64(n-1)
		xs[i] = x
		ps[i] = c.At(x)
	}
	return xs, ps
}

// KolmogorovSmirnov returns the two-sample KS statistic D = sup|F₁−F₂| and
// the asymptotic p-value of the null hypothesis that both samples come from
// the same distribution. The evaluation uses it to quantify how completely
// distributions separate (e.g. same-road vs different-road trajectory
// correlations). Missing entries are skipped; it panics when either sample
// has no valid values.
func KolmogorovSmirnov(xs, ys []float64) (d, p float64) {
	a := validSorted(xs)
	b := validSorted(ys)
	if len(a) == 0 || len(b) == 0 {
		panic("stats: KolmogorovSmirnov with an empty sample")
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		var x float64
		if a[i] <= b[j] {
			x = a[i]
		} else {
			x = b[j]
		}
		for i < len(a) && a[i] <= x {
			i++
		}
		for j < len(b) && b[j] <= x {
			j++
		}
		diff := math.Abs(float64(i)/float64(len(a)) - float64(j)/float64(len(b)))
		if diff > d {
			d = diff
		}
	}
	// Asymptotic Kolmogorov distribution: p = 2 Σ (−1)^{k−1} e^{−2k²λ²}.
	// The series does not converge as λ → 0, where the true p is 1.
	n := float64(len(a)) * float64(len(b)) / float64(len(a)+len(b))
	lambda := (math.Sqrt(n) + 0.12 + 0.11/math.Sqrt(n)) * d
	if lambda < 0.2 {
		return d, 1
	}
	p = 0
	for k := 1; k <= 100; k++ {
		term := float64(2 * math.Pow(-1, float64(k-1)) * math.Exp(-2*float64(k*k)*lambda*lambda))
		p += term
		if math.Abs(term) < 1e-12 {
			break
		}
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return d, p
}

// validSorted returns the non-missing values of xs, sorted ascending.
func validSorted(xs []float64) []float64 {
	var s []float64
	for _, x := range xs {
		if !IsMissing(x) {
			s = append(s, x)
		}
	}
	sort.Float64s(s)
	return s
}
