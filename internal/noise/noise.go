// Package noise provides the deterministic stochastic building blocks of the
// simulated radio environment and sensors:
//
//   - hash noise: reproducible uniform/Gaussian variates addressed by integer
//     keys, so a field can be queried at any point in any order and always
//     return the same value (no stored state, O(1) per query);
//   - lattice fields: spatially (or temporally) correlated unit-variance
//     Gaussian fields with a configurable correlation length, built by
//     smoothly interpolating hash-noise lattice values — the mechanism behind
//     shadow fading and slow temporal drift;
//   - an Ornstein–Uhlenbeck process for sequential simulations such as
//     sensor bias random walks.
package noise

import "math"

// splitmix64 is the finalizer of the SplitMix64 generator; it is a strong
// 64-bit mixer used to derive independent streams from (seed, key...) tuples.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash mixes a seed and any number of keys into a uniformly distributed
// 64-bit value.
func Hash(seed uint64, keys ...uint64) uint64 {
	h := splitmix64(seed)
	for _, k := range keys {
		h = splitmix64(h ^ k)
	}
	return h
}

// Uniform returns a deterministic uniform variate in [0, 1) addressed by
// (seed, keys...).
func Uniform(seed uint64, keys ...uint64) float64 {
	return float64(Hash(seed, keys...)>>11) / (1 << 53)
}

// Gaussian returns a deterministic standard normal variate addressed by
// (seed, keys...), via the Box–Muller transform of two derived uniforms.
func Gaussian(seed uint64, keys ...uint64) float64 {
	h := Hash(seed, keys...)
	u1 := float64(h>>11) / (1 << 53)
	u2 := float64(splitmix64(h)>>11) / (1 << 53)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// smoothstep is the C¹ interpolation kernel 3t²−2t³.
func smoothstep(t float64) float64 { return float64(t * t * (3 - float64(2*t))) }

// latticeKey quantizes a coordinate to a lattice cell index, correctly
// flooring negative values.
func latticeKey(x float64) int64 { return int64(math.Floor(x)) }

// Field1D is a stationary, unit-variance, correlated Gaussian process over a
// one-dimensional coordinate (time for temporal drift, arc length for
// along-road effects). Values separated by less than Scale are strongly
// correlated; beyond ~2·Scale they are essentially independent.
type Field1D struct {
	Seed  uint64
	Scale float64 // correlation length, in the coordinate's unit
}

// Memo1D remembers the corner variates of the last lattice cell a Field1D
// was evaluated in, so that a sequential reader draws only the corners it
// has not seen. A corner's variate is addressed by (seed, lattice index)
// alone, so reusing it is exact. The zero value is an empty memo; a memo
// belongs to one goroutine.
type Memo1D struct {
	seed uint64
	i    int64
	g    [2]float64
	ok   bool
}

// corners returns the variates of cell i's two corners, reusing those the
// memo holds and recording cell i in it. A nil memo draws both.
func (m *Memo1D) corners(seed uint64, i int64) (g [2]float64) {
	hit := m != nil && m.ok && m.seed == seed
	for k := range g {
		c := i + int64(k)
		if hit {
			if d := uint64(c - m.i); d <= 1 {
				g[k] = m.g[d]
				continue
			}
		}
		g[k] = Gaussian(seed, uint64(c))
	}
	if m != nil {
		*m = Memo1D{seed: seed, i: i, g: g, ok: true}
	}
	return g
}

// At returns the field value at coordinate x.
func (f Field1D) At(x float64) float64 { return f.AtMemo(x, nil) }

// AtMemo returns At(x), bit for bit, drawing only the lattice corners that
// m does not already hold. A nil m draws every corner.
func (f Field1D) AtMemo(x float64, m *Memo1D) float64 {
	u := x / f.Scale
	i := latticeKey(u)
	t := u - float64(i)
	w := smoothstep(t)
	g := m.corners(f.Seed, i)
	v := float64((1-w)*g[0]) + float64(w*g[1])
	// Normalize to unit variance: Var = (1−w)² + w².
	return v / math.Sqrt(float64((1-w)*(1-w))+float64(w*w))
}

// Field2D is the two-dimensional analogue of Field1D, used for shadow-fading
// maps: a frozen, spatially correlated, unit-variance Gaussian field over the
// world plane.
type Field2D struct {
	Seed  uint64
	Scale float64 // correlation length in metres
}

// Memo2D is Memo1D's two-dimensional analogue: the four corner variates of
// the last lattice cell, in the order (i,j), (i+1,j), (i,j+1), (i+1,j+1).
type Memo2D struct {
	seed uint64
	i, j int64
	g    [4]float64
	ok   bool
}

// corners returns the variates of cell (i, j)'s four corners, reusing every
// corner shared with the memo's cell and recording (i, j) in it. A nil memo
// draws all four.
func (m *Memo2D) corners(seed uint64, i, j int64) (g [4]float64) {
	hit := m != nil && m.ok && m.seed == seed
	for k := range g {
		ci, cj := i+int64(k&1), j+int64(k>>1)
		if hit {
			// Unsigned offsets from the memo's cell: 0 or 1 on both axes
			// means the corner is one the memo holds.
			if di, dj := uint64(ci-m.i), uint64(cj-m.j); di <= 1 && dj <= 1 {
				g[k] = m.g[di+2*dj]
				continue
			}
		}
		g[k] = Gaussian(seed, uint64(ci), uint64(cj))
	}
	if m != nil {
		*m = Memo2D{seed: seed, i: i, j: j, g: g, ok: true}
	}
	return g
}

// At returns the field value at world position (x, y).
func (f Field2D) At(x, y float64) float64 { return f.AtMemo(x, y, nil) }

// AtMemo returns At(x, y), bit for bit, drawing only the lattice corners
// that m does not already hold. A nil m draws every corner.
func (f Field2D) AtMemo(x, y float64, m *Memo2D) float64 {
	u, v := x/f.Scale, y/f.Scale
	i, j := latticeKey(u), latticeKey(v)
	tx, ty := u-float64(i), v-float64(j)
	wx, wy := smoothstep(tx), smoothstep(ty)
	g := m.corners(f.Seed, i, j)
	w00 := (1 - wx) * (1 - wy)
	w10 := wx * (1 - wy)
	w01 := (1 - wx) * wy
	w11 := wx * wy
	val := float64(w00*g[0]) + float64(w10*g[1]) + float64(w01*g[2]) + float64(w11*g[3])
	norm := math.Sqrt(float64(w00*w00) + float64(w10*w10) + float64(w01*w01) + float64(w11*w11))
	return val / norm
}

// Octaves sums n copies of a base field at doubling frequencies and halving
// amplitudes, renormalized to unit variance. It produces richer multi-scale
// structure than a single lattice, which matters for the fine-resolution
// behaviour of the fading field.
type Octaves struct {
	Base Field2D
	N    int
}

// At returns the multi-octave field value at (x, y).
func (o Octaves) At(x, y float64) float64 {
	var sum, varSum float64
	amp := 1.0
	scale := o.Base.Scale
	for k := 0; k < o.N; k++ {
		f := Field2D{Seed: o.Base.Seed + uint64(k)*0x9e37, Scale: scale}
		sum += float64(amp * f.At(x, y))
		varSum += float64(amp * amp)
		amp /= 2
		scale /= 2
	}
	return sum / math.Sqrt(varSum)
}

// OU is a sequential Ornstein–Uhlenbeck process: mean-reverting Gaussian
// noise with relaxation time Tau and stationary standard deviation Sigma.
// It models slowly wandering sensor biases. The zero value with Tau and
// Sigma set starts at the stationary mean 0.
type OU struct {
	Tau   float64 // relaxation time, seconds
	Sigma float64 // stationary standard deviation
	x     float64
}

// Step advances the process by dt seconds using the exact discretization,
// drawing its innovation from norm (a standard normal variate supplied by
// the caller's RNG), and returns the new value.
func (o *OU) Step(dt, norm float64) float64 {
	if o.Tau <= 0 {
		panic("noise: OU.Tau must be positive")
	}
	a := math.Exp(-dt / o.Tau)
	o.x = float64(o.x*a) + float64(o.Sigma*math.Sqrt(1-float64(a*a))*norm)
	return o.x
}

// Value returns the current process value without advancing it.
func (o *OU) Value() float64 { return o.x }
