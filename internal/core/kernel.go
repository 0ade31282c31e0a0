package core

import "math"

// The correlation kernels score four lanes per call. A lane correlates a
// reference vector x against a target window y of the call's n elements
// and receives the clamped Pearson r, computed from exact integer moments:
//
//	r = (w·Σxy − Σx·Σy) · ix · iy,  ix = 1/√(w·Σx² − (Σx)²),  iy = 1/√(w·Σy² − (Σy)²)
//
// with ix or iy 0 when its bracket is not positive. Every vector holds
// whole numbers (power cells, or sums of them), so Σxy, Σy, Σy² and the
// reference's Σx and ix arrive exact, and every bracket is an integer
// below 2⁵³, exact in float64 in any summation order (Params.validate
// bounds the window and context lengths; see cellRunMax). A lane's r
// therefore depends only on its inputs, never on which kernel ran or how
// it grouped its additions.
//
// Two kernels share that Pearson step (pearsonFromSums):
//
//   - corr4I16, the channel term: x is a reference row of cells widened
//     to int16, y a window of target cells read as bytes, Σxy an int32
//     dot product;
//   - corr4, the column term: x and y are float64 column sums (up to
//     k·254, past int16 for k > 129), Σxy a float64 dot product in dot's
//     lane order.
//
// Both block layouts are part of the amd64 kernels' contract
// (kernel_amd64.s reads the fields at fixed offsets, the same in both;
// TestCorrBlockLayout pins them).

// chanBlock is one call of the channel kernel. x[c] holds n reference
// cells as int16 followed by zeros up to padLen(n); y[c] must be readable
// for padLen(n) bytes, of which the kernel uses the first n (the AVX2 loop
// multiplies the excess by x's zero pad). chanSum fills the lanes with
// four channels of one placement; spare lanes repeat a real lane and
// their r is discarded.
type chanBlock struct {
	x      [4][]int16
	y      [4][]uint8
	sy, qy [4]float64 // Σy and Σy² over the target window
	sx, ix [4]float64 // reference Σx and 1/√(w·Σx² − (Σx)²) (0 when degenerate)
	r      [4]float64
}

// corrBlock is one call of the column kernel: lane c scores reference
// column sums x[c] against target column sums y[c] (both resliced to the
// call's n). colTerms fills the lanes with four placements that share the
// reference.
type corrBlock struct {
	x, y   [4][]float64
	sy, qy [4]float64
	sx, ix [4]float64
	r      [4]float64
}

// padLen is n rounded up to the channel kernel's 16-cell step.
func padLen(n int) int { return (n + 15) &^ 15 }

// corr4I16 runs the channel kernel on one block of n-cell lanes: the AVX2
// assembly where the CPU supports it (decided once, at package init),
// corr4I16Generic everywhere else. Both return the same bits.
func corr4I16(b *chanBlock, n int, wf float64) {
	if hasAVX2 {
		corr4I16AVX2(b, n, wf)
		return
	}
	corr4I16Generic(b, n, wf)
}

// corr4I16Generic is the portable channel kernel and the reference the
// assembly is tested against: per lane an int32 dot product of the cells,
// then the Pearson step.
func corr4I16Generic(b *chanBlock, n int, wf float64) {
	for c := range b.r {
		sxy := dotCells(b.x[c][:n], b.y[c][:n])
		b.r[c] = pearsonFromSums(wf, float64(sxy), b.sy[c], b.qy[c], b.sx[c], b.ix[c])
	}
}

// dotCells returns Σ x[u]·y[u] in int32. The products and their sum are
// exact while len(x)·254² < 2³¹, which Params.validate guarantees for
// every window the scan plans; the assembly's int32 lanes wrap the same
// way past it, so the two kernels agree even there.
func dotCells(x []int16, y []uint8) int32 {
	y = y[:len(x)]
	var s int32
	for u, v := range x {
		s += int32(v) * int32(y[u])
	}
	return s
}

// corr4 runs the column kernel on one block of n-element lanes: the AVX2
// assembly where the CPU supports it, corr4Generic everywhere else. Both
// return the same bits.
func corr4(b *corrBlock, n int, wf float64) {
	if hasAVX2 {
		corr4AVX2(b, n, wf)
		return
	}
	corr4Generic(b, n, wf)
}

// corr4Generic is the portable column kernel and the reference the
// assembly is tested against: per lane dot, then the Pearson step.
func corr4Generic(b *corrBlock, n int, wf float64) {
	for c := range b.r {
		b.r[c] = pearsonFromSums(wf, dot(b.x[c][:n], b.y[c][:n]), b.sy[c], b.qy[c], b.sx[c], b.ix[c])
	}
}

// pearsonFromSums is the kernels' per-lane Pearson step, matching
// stats.Pearson's conventions: 0 for a degenerate side (iy masked to 0
// when w·Σy² − (Σy)² ≤ 0, or ix passed as 0), clamped to [-1, 1]. The
// clamp is written with comparisons, so a NaN passes through. Each
// product is rounded before it is subtracted (float64(·)): on exact
// integer inputs the products are exact anyway, and the rounding keeps
// arm64 from fusing them into an FMA.
func pearsonFromSums(wf, sxy, sy, qy, sx, ix float64) float64 {
	r := (float64(wf*sxy) - float64(sx*sy)) * ix * invNorm(wf, sy, qy)
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r
}

// invNorm returns 1/√(w·q − s²) for a vector's sum s and sum of squares q
// over w elements, or 0 when the bracket is not positive (a constant
// vector) or NaN.
func invNorm(wf, s, q float64) float64 {
	if v := float64(wf*q) - float64(s*s); v > 0 {
		return 1 / math.Sqrt(v)
	}
	return 0
}

// dot returns Σ a[u]·b[u] with four accumulators s_l over the elements
// u ≡ l (mod 4), the n%4 tail added into s0, reduced as (s0+s1)+(s2+s3).
// That summation order is the column kernel's contract: the AVX2 block
// keeps s_l in lane l of one accumulator per row, so both kernels return
// these bits even where the column sums' products outgrow 2⁵³ and the
// sum stops being exact. Each product is rounded before it is added
// (float64(·)): a platform that fuses x*y+z into one FMA would otherwise
// compute different bits. The loop bound u < len(a)-3 together with the
// up-front reslice of b lets the compiler drop every bounds check in the
// hot loop (-d=ssa/check_bce).
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	u := 0
	for ; u < len(a)-3; u += 4 {
		x, y := a[u:u+4:u+4], b[u:u+4:u+4]
		s0 += float64(x[0] * y[0])
		s1 += float64(x[1] * y[1])
		s2 += float64(x[2] * y[2])
		s3 += float64(x[3] * y[3])
	}
	for ; u < len(a); u++ {
		s0 += float64(a[u] * b[u])
	}
	return (s0 + s1) + (s2 + s3)
}

// lanes4 returns the indices of the four-lane group starting at i of k,
// clamping past-the-end lanes to the last index.
func lanes4(i, k int) [4]int {
	return [4]int{i, min(i+1, k-1), min(i+2, k-1), min(i+3, k-1)}
}
