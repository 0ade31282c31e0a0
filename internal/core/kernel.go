package core

import "math"

// The correlation kernels score four lanes at a time. A lane correlates a
// reference vector x against a target window y of n elements and receives
// the clamped Pearson r, computed from exact integer moments:
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
//   - chanKernel, the channel term of one placement: it walks all k
//     channels four lanes at a time, correlating the reference and target
//     rows in place as bytes (Σxy an int32 dot product, Σy and Σy² from
//     the target's prefix tables), adds the r values in channel order, and
//     abandons the placement as soon as its partial bound dies;
//   - corr4, the column term: x and y are float64 column sums (up to
//     k·254, past int16 for k > 129), Σxy a float64 dot product in dot's
//     lane order.
//
// The amd64 kernels read chanTable, chanLanes and corrBlock at fixed
// offsets (kernel_amd64.s; TestCorrBlockLayout pins them).

// chanTable is the fused channel kernel's view of one reference segment
// and its target: built once per segment by newSegScorer, then read by
// every placement's kernel call. Lane c of lanes[g] is channel 4g+c; the
// last block's spare lanes repeat channel k−1, and their r is not added.
type chanTable struct {
	ref []uint8  // the source index's cells
	tgt []uint8  // the target index's cells
	pre []rowPre // the target index's row prefix tables
	// lanes holds one entry per block of four channels.
	lanes []chanLanes
	k, w  int
	// tail masks the reference's last 16-cell step: 0xFFFF for the step's
	// cells inside the window, 0 past it. The step reads up to 15 cells
	// past w on both rows, and the reference's are real cells (the row's
	// next ones) or its zero pad, so they must be cancelled.
	tail [16]uint16
}

// chanLanes is one block of four channels in a chanTable.
type chanLanes struct {
	ref [4]int // byte offset of the lane's reference cell at lo in ref
	tgt [4]int // byte offset of the lane's target row in tgt
	pre [4]int // offset of the lane's target row in pre
	// sx and ix are the reference's Σx and 1/√(w·Σx² − (Σx)²) (0 when
	// degenerate).
	sx, ix [4]float64
}

// tailMask returns chanTable.tail for a window of w ≥ 1 cells: the last
// 16-cell step starts at 16·⌊(w−1)/16⌋ and holds ((w−1) mod 16) + 1 cells
// of the window.
func tailMask(w int) (m [16]uint16) {
	for u := range (w-1)%16 + 1 {
		m[u] = 0xFFFF
	}
	return m
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

// chanKernel is the channel term of the placement at j: the sum of the
// per-channel r in channel order, or ok false once the placement is
// provably dead. After every block of four channels but the last, with i
// channels summed, it tests the bound (sum + (k−i))/k + cr + abandonSlack
// (see segScorer.chanSum) and abandons when bound ≤ le or bound < lt
// (scanCut.fold). It runs the AVX2 assembly where the CPU supports it
// (decided once, at package init), chanKernelGeneric everywhere else; both
// return the same sum bits and the same verdict.
func chanKernel(t *chanTable, j int, cr, le, lt float64) (sum float64, ok bool) {
	if hasAVX2 {
		return chanKernelAVX2(t, j, cr, le, lt)
	}
	return chanKernelGeneric(t, j, cr, le, lt)
}

// chanKernelGeneric is the portable channel kernel and the reference the
// assembly is tested against: per real lane an int32 dot product of the
// cells and the Pearson step, then the abandon test per block.
func chanKernelGeneric(t *chanTable, j int, cr, le, lt float64) (sum float64, ok bool) {
	k, w := t.k, t.w
	wf, kf := float64(w), float64(k)
	for g := range t.lanes {
		ln := &t.lanes[g]
		i := g * abandonEvery
		for c := range min(abandonEvery, k-i) {
			p := t.pre[ln.pre[c]+j:]
			p = p[:w+1]
			a, b := p[0], p[w]
			sxy := dotBytes(t.ref[ln.ref[c]:][:w], t.tgt[ln.tgt[c]+j:][:w])
			sum += pearsonFromSums(wf, float64(sxy), float64(b.s-a.s), float64(b.q-a.q), ln.sx[c], ln.ix[c])
		}
		if i+abandonEvery < k {
			if bound := (sum+float64(k-i-abandonEvery))/kf + cr + abandonSlack; bound <= le || bound < lt {
				return sum, false
			}
		}
	}
	return sum, true
}

// dotBytes returns Σ x[u]·y[u] in int32, eight cells per step into four
// accumulators. Integer addition is associative, so the grouping changes
// nothing: the products and their sum are exact while len(x)·254² < 2³¹,
// which Params.validate guarantees for every window the scan plans, and
// past it both this and the assembly's int32 lanes wrap mod 2³². The
// up-front reslice of y and the three-index step slices leave one bounds
// check per eight cells in the loop (-d=ssa/check_bce).
func dotBytes(x, y []uint8) int32 {
	y = y[:len(x)]
	var s0, s1, s2, s3 int32
	u := 0
	for ; u+8 <= len(x); u += 8 {
		a, b := x[u:u+8:u+8], y[u:u+8:u+8]
		s0 += int32(a[0])*int32(b[0]) + int32(a[4])*int32(b[4])
		s1 += int32(a[1])*int32(b[1]) + int32(a[5])*int32(b[5])
		s2 += int32(a[2])*int32(b[2]) + int32(a[6])*int32(b[6])
		s3 += int32(a[3])*int32(b[3]) + int32(a[7])*int32(b[7])
	}
	for ; u < len(x); u++ {
		s0 += int32(x[u]) * int32(y[u])
	}
	return (s0 + s1) + (s2 + s3)
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
