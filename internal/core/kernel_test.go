package core

import (
	"math"
	"math/rand"
	"testing"
)

// scalarR is the scan's per-channel Pearson step written out one channel at
// a time: dot, the target window's 1/√variance from its prefix endpoints,
// the r expression and the ±1 clamp. Both correlation kernels must return
// its bits in every lane.
func scalarR(x, y []float64, sLo, sHi, qLo, qHi, sx, ix, wf float64) float64 {
	sy := sHi - sLo
	var iy float64
	if vy := qHi - qLo - sy*sy/wf; vy > 0 {
		iy = 1 / math.Sqrt(vy)
	}
	sxy := dot(x, y)
	r := (sxy - sx*sy/wf) * ix * iy
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r
}

// sameBits reports bit equality, treating any two NaNs as equal (the
// kernels promise NaN in, NaN out — not a particular payload).
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// kernelLane fills lane c of b with an n-element case of the given kind:
// 0 a realistic window (deviation reference, shifted target, prefix sums
// over the target), 1 a degenerate target variance (vy ≤ 0), 2 a
// degenerate reference (ix = 0), 3 an inflated ix that drives r past ±1
// into the clamp, 4 a NaN in the reference row.
func kernelLane(rng *rand.Rand, b *corrBlock, c, n, kind int) {
	x, y := make([]float64, n), make([]float64, n)
	var sx, sxx float64
	for u := range x {
		y[u] = 20 * rng.NormFloat64()
		x[u] = 0.5*y[u] + 10*rng.NormFloat64()
		if rng.Intn(2) == 0 {
			x[u] = -x[u]
		}
	}
	var sLo, qLo float64 = 30 * rng.NormFloat64(), 400 * rng.Float64()
	sHi, qHi := sLo, qLo
	for u := range y {
		sHi += y[u]
		qHi += y[u] * y[u]
		sx += x[u]
		sxx += x[u] * x[u]
	}
	ix := 0.0
	if v := sxx - sx*sx/float64(n); v > 0 {
		ix = 1 / math.Sqrt(v)
	}
	switch kind {
	case 1:
		if rng.Intn(2) == 0 {
			qHi = qLo
		} else {
			qHi = qLo - rng.Float64()
		}
	case 2:
		ix = 0
	case 3:
		ix *= 1 + 4*rng.Float64()
		for u := range x {
			x[u] = y[u] // perfectly (anti-)correlated before inflation
			if c%2 == 1 {
				x[u] = -y[u]
			}
		}
		sx = 0
		for _, v := range x {
			sx += v
		}
	case 4:
		x[rng.Intn(n)] = math.NaN()
	}
	b.x[c], b.y[c] = x, y
	b.sLo[c], b.sHi[c], b.qLo[c], b.qHi[c] = sLo, sHi, qLo, qHi
	b.sx[c], b.ix[c] = sx, ix
}

// checkKernels runs both kernels on b and compares every lane with scalarR.
func checkKernels(t *testing.T, b *corrBlock, n int) {
	t.Helper()
	wf := float64(n)
	var want [4]float64
	for c := range want {
		want[c] = scalarR(b.x[c], b.y[c], b.sLo[c], b.sHi[c], b.qLo[c], b.qHi[c], b.sx[c], b.ix[c], wf)
	}
	g := *b
	corr4Generic(&g, n, wf)
	for c := range want {
		if !sameBits(g.r[c], want[c]) {
			t.Fatalf("n=%d lane %d: generic r = %v (%#x), scalar %v (%#x)", n, c, g.r[c], math.Float64bits(g.r[c]), want[c], math.Float64bits(want[c]))
		}
	}
	if !hasAVX2 {
		return
	}
	v := *b
	corr4AVX2(&v, n, wf)
	for c := range want {
		if !sameBits(v.r[c], want[c]) {
			t.Fatalf("n=%d lane %d: avx2 r = %v (%#x), scalar %v (%#x)", n, c, v.r[c], math.Float64bits(v.r[c]), want[c], math.Float64bits(want[c]))
		}
	}
}

// TestCorrKernelsMatchScalar compares the AVX2 kernel (where the CPU has
// it), the generic kernel and the scalar per-channel step bit for bit, for
// every n from 1 to 130 — each n%4 tail and the n < 4 blocks that never
// enter the vector loop — with lanes mixing realistic windows, degenerate
// target and reference variances, clamped correlations and NaN input.
func TestCorrKernelsMatchScalar(t *testing.T) {
	if !hasAVX2 {
		t.Log("CPU without AVX2: checking the generic kernel only")
	}
	rng := rand.New(rand.NewSource(41))
	var clampHi, clampLo, zeroIY int
	for n := 1; n <= 130; n++ {
		for trial := 0; trial < 40; trial++ {
			var b corrBlock
			for c := range b.x {
				kind := 0
				if trial%2 == 1 {
					kind = rng.Intn(5)
				}
				kernelLane(rng, &b, c, n, kind)
			}
			checkKernels(t, &b, n)
			corr4Generic(&b, n, float64(n))
			for c, r := range b.r {
				switch {
				case r == 1:
					clampHi++
				case r == -1:
					clampLo++
				case r == 0 && b.qHi[c] <= b.qLo[c]:
					zeroIY++
				}
			}
		}
	}
	if clampHi == 0 || clampLo == 0 || zeroIY == 0 {
		t.Fatalf("cases not exercised: clamp +1 %d, clamp -1 %d, vy ≤ 0 %d", clampHi, clampLo, zeroIY)
	}
}

// TestChanSumPaddedBlocks checks the planned scan's two kernel users
// against the scalar step for channel and placement counts that leave the
// last block part-padded: chanSum's sum must be the scalar r values added
// in channel order, and colTerms must give each placement the scalar
// column correlation.
func TestChanSumPaddedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 9, 45} {
		const m, w = 60, 21
		ref, tgt := randRows(rng, k, w), randRows(rng, k, m)
		dst := newMatrixIndex(tgt)
		dst.ensureWindowStats(w)
		s := newSegScorer(newMatrixIndex(ref), dst, 0, w, false)
		wf := float64(w)
		for j := 0; j < s.positions(); j++ {
			var want float64
			for i := 0; i < k; i++ {
				ps, pq := dst.preSum[i], dst.preSq[i]
				want += scalarR(s.scratch.dev[i], dst.shifted[i][j:j+w], ps[j], ps[j+w], pq[j], pq[j+w], s.scratch.devSum[i], s.scratch.invVx[i], wf)
			}
			if got, _ := s.chanSum(j, 0, nil); !sameBits(got, want) {
				t.Fatalf("k=%d j=%d: chanSum %v, scalar %v", k, j, got, want)
			}
		}
		for lo := 0; lo < 4; lo++ {
			for cnt := 1; lo+cnt <= s.positions() && cnt <= 9; cnt++ {
				out := make([]float64, cnt)
				s.colTerms(lo, out)
				for q, got := range out {
					j := lo + q
					want := scalarR(s.scratch.colDev, dst.colShifted[j:j+w], dst.colPre[j], dst.colPre[j+w], dst.colPreSq[j], dst.colPreSq[j+w], s.refColDevSum, s.colInvVx, wf)
					if !sameBits(got, want) {
						t.Fatalf("k=%d colTerms(%d, %d)[%d] = %v, scalar %v", k, lo, cnt, q, got, want)
					}
				}
			}
		}
		s.release()
	}
}

// TestDenseDetection pins the index's dense flag, which now rides on the
// row sums: a missing entry anywhere makes the index sparse, while
// infinities that cancel to a NaN sum without any missing entry do not.
func TestDenseDetection(t *testing.T) {
	rows := randRows(rand.New(rand.NewSource(61)), 6, 40)
	if !newMatrixIndex(rows).dense {
		t.Fatal("finite rows: index not dense")
	}
	rows[5][39] = math.NaN()
	if newMatrixIndex(rows).dense {
		t.Fatal("missing entry in the last row: index still dense")
	}
	rows[5][39] = -60
	rows[2][3], rows[2][17] = math.Inf(1), math.Inf(-1)
	if !newMatrixIndex(rows).dense {
		t.Fatal("cancelling infinities without a missing entry: index not dense")
	}
}

// FuzzChanBlock compares the kernels with the scalar step on fuzzer-chosen
// window lengths and prefix endpoints, reference statistics and row seeds.
func FuzzChanBlock(f *testing.F) {
	f.Add(uint8(85), int64(1), 0.0, 12.5, 3.0, 900.0, 0.25, 0.01)
	f.Add(uint8(3), int64(2), 1.0, 1.0, 5.0, 5.0, 0.0, 0.0)
	f.Add(uint8(130), int64(3), -4.0, 4.0, 0.0, 1e-300, 1e300, 7.0)
	f.Fuzz(func(t *testing.T, n8 uint8, seed int64, sLo, sHi, qLo, qHi, sx, ix float64) {
		n := int(n8)%130 + 1
		rng := rand.New(rand.NewSource(seed))
		var b corrBlock
		for c := range b.x {
			kernelLane(rng, &b, c, n, rng.Intn(5))
		}
		// Lane 0 takes the fuzzer's statistics verbatim.
		b.sLo[0], b.sHi[0], b.qLo[0], b.qHi[0], b.sx[0], b.ix[0] = sLo, sHi, qLo, qHi, sx, ix
		checkKernels(t, &b, n)
	})
}

// BenchmarkCorrKernel times one four-channel block at the default 85 m
// window: the scalar per-channel step, the generic kernel and (where the
// CPU has it) the AVX2 kernel.
func BenchmarkCorrKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	const n = 85
	var blk corrBlock
	for c := range blk.x {
		kernelLane(rng, &blk, c, n, 0)
	}
	b.Run("scalar", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			for c := range blk.r {
				blk.r[c] = scalarR(blk.x[c], blk.y[c], blk.sLo[c], blk.sHi[c], blk.qLo[c], blk.qHi[c], blk.sx[c], blk.ix[c], n)
			}
		}
	})
	b.Run("generic", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			corr4Generic(&blk, n, n)
		}
	})
	b.Run("avx2", func(b *testing.B) {
		if !hasAVX2 {
			b.Skip("CPU without AVX2")
		}
		for it := 0; it < b.N; it++ {
			corr4AVX2(&blk, n, n)
		}
	})
}

// TestInterleavedPreprocessingMatchesScalar pins the four-row index and
// segment set-up to one-row-at-a-time loops, bit for bit, for row counts
// that leave the last group padded: row shifts, shifted rows, both prefix
// tables, column means, and the reference segment's deviations, their sums
// and reciprocal √variances.
func TestInterleavedPreprocessingMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	same := func(what string, got, want float64) {
		t.Helper()
		if !sameBits(got, want) {
			t.Fatalf("%s = %v, scalar %v", what, got, want)
		}
	}
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 45} {
		const m, lo, w = 77, 9, 31
		rows := randRows(rng, k, m)
		idx := newMatrixIndex(rows)
		for j := 0; j < m; j++ {
			var sum float64
			for i := 0; i < k; i++ {
				sum += rows[i][j]
			}
			same("col", idx.col[j], sum/float64(k))
		}
		for i, row := range rows {
			var sum float64
			for _, v := range row {
				sum += v
			}
			c := sum / m
			same("shift", idx.shift[i], c)
			var ps, pq float64
			for j, v := range row {
				d := v - c
				ps += d
				pq += float64(d * d)
				same("shifted", idx.shifted[i][j], d)
				same("preSum", idx.preSum[i][j+1], ps)
				same("preSq", idx.preSq[i][j+1], pq)
			}
		}
		s := newSegScorer(idx, idx, lo, w, false)
		for i, row := range rows {
			seg := row[lo : lo+w]
			var sum float64
			for _, v := range seg {
				sum += v
			}
			mean := sum / w
			var dsum, dvar float64
			for u, v := range seg {
				d := v - mean
				dsum += d
				dvar += float64(d * d)
				same("dev", s.scratch.dev[i][u], d)
			}
			same("devSum", s.scratch.devSum[i], dsum)
			same("devVar", s.scratch.devVar[i], dvar)
			same("invVx", s.scratch.invVx[i], 1/math.Sqrt(dvar))
		}
		s.release()
	}
}

// BenchmarkMatrixIndex times the per-context preprocessing of one side of
// a default search: the index (row shifts, shifted rows, both prefix
// tables, column means) over the 45 selected channels of a 1 km context.
func BenchmarkMatrixIndex(b *testing.B) {
	rows := randRows(rand.New(rand.NewSource(59)), 45, 1000)
	ar := new(arena)
	b.ReportAllocs()
	for it := 0; it < b.N; it++ {
		newMatrixIndexArena(rows, ar)
		ar.reset()
	}
}
