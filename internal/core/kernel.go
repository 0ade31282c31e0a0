package core

import "math"

// corrBlock is one four-lane call of the correlation kernel: lane c scores
// reference row x[c] against target window y[c] (both resliced to the
// call's n) from the target window's prefix-table endpoints and the
// reference row's deviation sum and reciprocal √variance, and receives the
// clamped Pearson r in r[c]. The channel sweep fills the lanes with four
// channels of one placement, the column sweep with four placements of the
// column-mean term; padded lanes repeat a real lane and their r is
// discarded.
//
// The layout is part of the amd64 kernel's contract (kernel_amd64.s reads
// the fields at fixed offsets; TestCorrBlockLayout pins them).
type corrBlock struct {
	x, y     [4][]float64
	sLo, sHi [4]float64 // Σ over the target window: sHi − sLo
	qLo, qHi [4]float64 // Σ² over the target window: qHi − qLo
	sx, ix   [4]float64 // reference deviation sum and 1/√variance (0 when degenerate)
	r        [4]float64
}

// corr4 runs the correlation kernel on one block of n-element lanes: the
// AVX2 assembly where the CPU supports it (decided once, at package init),
// corr4Generic everywhere else. Both return the same bits.
func corr4(b *corrBlock, n int, wf float64) {
	if hasAVX2 {
		corr4AVX2(b, n, wf)
		return
	}
	corr4Generic(b, n, wf)
}

// corr4Generic is the portable kernel and the reference the assembly is
// tested against. Per lane it is the scan's scalar Pearson step exactly:
// dot's four-accumulator summation, the target window's variance from its
// prefix tables, 1/√vy masked to 0 when vy ≤ 0 (or NaN), and the ±1 clamp,
// which lets NaN through like the comparisons it is written with.
func corr4Generic(b *corrBlock, n int, wf float64) {
	for c := range b.r {
		sxy := dot(b.x[c][:n], b.y[c][:n])
		sy := b.sHi[c] - b.sLo[c]
		var iy float64
		if vy := b.qHi[c] - b.qLo[c] - sy*sy/wf; vy > 0 {
			iy = 1 / math.Sqrt(vy)
		}
		r := (sxy - b.sx[c]*sy/wf) * b.ix[c] * iy
		if r > 1 {
			r = 1
		} else if r < -1 {
			r = -1
		}
		b.r[c] = r
	}
}

// dot returns Σ a[u]·b[u] with four accumulators s_l over the elements
// u ≡ l (mod 4), the n%4 tail added into s0, reduced as (s0+s1)+(s2+s3).
// That summation order is the correlation kernels' contract: the AVX2
// block keeps s_l in lane l of one accumulator per row, so both kernels
// return these bits. Each product is rounded before it is added
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

// Interleaved preprocessing. The O(k·m) index and segment set-up is a set
// of per-row serial add chains (row sums, prefix sums, deviation moments);
// the helpers below run four independent chains side by side — four rows'
// sums, or two rows' pairs of moment chains — each chain keeping its own
// order of additions, so the results are bit-identical to one row at a
// time. (Four rows of the two-chain passes would keep sixteen slices and
// eight accumulators live, more than the register file holds; the spills
// cost more than the overlap gains.) Callers pick rows with lanes4, or in
// pairs a, min(a+1, k−1): past the last row the spare lanes repeat it,
// compute exactly its values and write them to its outputs again.

// lanes4 returns the row indices of the four-row group starting at i of k
// rows, clamping past-the-end lanes to the last row.
func lanes4(i, k int) [4]int {
	return [4]int{i, min(i+1, k-1), min(i+2, k-1), min(i+3, k-1)}
}

// pick4 returns the rows at the four lane indices.
func pick4(rows [][]float64, l [4]int) [4][]float64 {
	return [4][]float64{rows[l[0]], rows[l[1]], rows[l[2]], rows[l[3]]}
}

// sum4 returns each row's sum in index order (rows of r[0]'s length).
func sum4(r *[4][]float64) [4]float64 {
	r0 := r[0]
	r1, r2, r3 := r[1][:len(r0)], r[2][:len(r0)], r[3][:len(r0)]
	var s0, s1, s2, s3 float64
	for u, v := range r0 {
		s0 += v
		s1 += r1[u]
		s2 += r2[u]
		s3 += r3[u]
	}
	return [4]float64{s0, s1, s2, s3}
}

// shiftPrefix2 writes, for two rows r0 and r1 with shifts c0 and c1, the
// shifted rows sh[u] = r[u] − c and their prefix sums ps[u+1] = ps[u] +
// sh[u] and pq[u+1] = pq[u] + sh[u]², from ps[0] = pq[0] = 0 (sh is r0's
// length, ps and pq one longer).
func shiftPrefix2(r0, r1 []float64, c0, c1 float64, sh0, sh1, ps0, ps1, pq0, pq1 []float64) {
	n := len(r0)
	r1, sh0, sh1 = r1[:n], sh0[:n], sh1[:n]
	ps0, ps1, pq0, pq1 = ps0[:n+1], ps1[:n+1], pq0[:n+1], pq1[:n+1]
	var p0, p1, q0, q1 float64
	ps0[0], ps1[0], pq0[0], pq1[0] = 0, 0, 0, 0
	for u := 0; u < n; u++ {
		d0, d1 := r0[u]-c0, r1[u]-c1
		sh0[u], sh1[u] = d0, d1
		p0 += d0
		p1 += d1
		q0 += float64(d0 * d0)
		q1 += float64(d1 * d1)
		ps0[u+1], ps1[u+1] = p0, p1
		pq0[u+1], pq1[u+1] = q0, q1
	}
}

// deviations2 writes, for two rows r0 and r1 with means m0 and m1, the
// deviations dev[u] = r[u] − m, and returns each row's deviation sum s and
// sum of squares q.
func deviations2(r0, r1 []float64, m0, m1 float64, dev0, dev1 []float64) (s0, q0, s1, q1 float64) {
	n := len(r0)
	r1, dev0, dev1 = r1[:n], dev0[:n], dev1[:n]
	for u, v := range r0 {
		d0, d1 := v-m0, r1[u]-m1
		dev0[u], dev1[u] = d0, d1
		s0 += d0
		s1 += d1
		q0 += float64(d0 * d0)
		q1 += float64(d1 * d1)
	}
	return s0, q0, s1, q1
}
