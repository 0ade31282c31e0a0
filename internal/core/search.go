package core

import (
	"math"
	"slices"
	"sync"

	"rups/internal/stats"
	"rups/internal/trajectory"
)

// SYNPoint is one alignment between two trajectories: metre IdxA on
// trajectory A and metre IdxB on trajectory B are believed to be the same
// physical location. Score is the trajectory correlation coefficient of the
// matched windows; WindowLen records the (possibly shrunken) window used.
type SYNPoint struct {
	IdxA, IdxB int
	Score      float64
	WindowLen  int
}

// RelativeDistance resolves the front-rear distance implied by the SYN
// point (paper §IV-E): how much farther B has travelled since the common
// location than A has. Positive means B is ahead of A.
func (s SYNPoint) RelativeDistance(a, b *trajectory.Aware) float64 {
	// The metre-index → metre-distance unit change is explicit: mark i sits
	// i metres from trajectory start (see trajectory.MetresFromIndex).
	dA := trajectory.MetresFromIndex(a.Len()-1) - trajectory.MetresFromIndex(s.IdxA)
	dB := trajectory.MetresFromIndex(b.Len()-1) - trajectory.MetresFromIndex(s.IdxB)
	return dB - dA
}

// matrixIndex is the per-matrix half of the sliding trajectory-correlation
// scorer (stats.TrajCorr, Eq. 2): everything that depends only on one
// selected power matrix (k channel rows × m metres). A Searcher builds one
// index per trajectory snapshot and shares it across all NumSYN segment
// offsets and both sliding directions — the O(k·m) preprocessing of the
// paper's §V-A complexity argument is paid once per (pair, snapshot)
// instead of 2·NumSYN times per query.
//
// All dense-path moments are accumulated about a per-row shift (the row's
// mean over the whole matrix). Pearson's r is invariant under a constant
// shift of either vector, but the accumulated sums stay at deviation scale:
// the windowed variance Σy² − (Σy)²/w cannot catastrophically cancel the
// way raw moments do at RSSI magnitudes (~−100 dBm).
type matrixIndex struct {
	rows [][]float64 // k rows × m columns (shares storage with the snapshot)
	k, m int
	// dense reports no missing entries anywhere in rows.
	dense bool
	// missPre[i][j] counts missing entries in rows[i][0:j); built only when
	// the matrix is not dense, so segment density checks stay O(k).
	missPre [][]int32

	// Dense fast path (nil when !dense).
	shift   []float64   // per-row shift: the row mean over all m columns
	shifted [][]float64 // shifted[i][j] = rows[i][j] − shift[i]
	preSum  [][]float64 // preSum[i][j] = Σ shifted[i][0:j)
	preSq   [][]float64 // preSq[i][j]  = Σ shifted[i][0:j)²

	// Column means for Eq. 2's second term (missing-skipping, so valid in
	// both paths), plus their shifted prefix sums for the dense path.
	col        []float64
	colShift   float64
	colShifted []float64
	colPre     []float64
	colPreSq   []float64

	// wins lists the window lengths the Searcher planned (ensureWindowStats):
	// written sequentially at planning time, then read by concurrent
	// direction scans.
	wins []int

	// ar is the owning Searcher's bump allocator (nil for directly
	// constructed indexes, which then fall back to plain allocation).
	ar *arena
}

// ensureWindowStats marks window length w as planned, enabling the bounded
// scan (canBound) for scorers of that length. It must be called from a
// single goroutine before scoring fans out — the Searcher does so while
// planning segments; scans afterwards only read.
func (idx *matrixIndex) ensureWindowStats(w int) {
	if !idx.dense || idx.k == 0 || w <= 0 || w > idx.m || idx.planned(w) {
		return
	}
	idx.wins = append(idx.wins, w)
}

// planned reports whether ensureWindowStats marked w.
func (idx *matrixIndex) planned(w int) bool {
	for _, pw := range idx.wins {
		if pw == w {
			return true
		}
	}
	return false
}

// newMatrixIndex builds the shared precomputation for one selected power
// matrix. A zero-row or zero-column matrix yields a valid index with no
// window positions rather than a panic.
func newMatrixIndex(rows [][]float64) *matrixIndex {
	return newMatrixIndexArena(rows, nil)
}

// newMatrixIndexArena is newMatrixIndex with its float64 backing arrays
// grabbed from a searcher arena (plain allocation when ar is nil). Arena
// memory is unzeroed, so every cell below is written explicitly — in
// particular the prefix-table [0] sentinels that a range-over-append loop
// would otherwise inherit from a previous cycle.
func newMatrixIndexArena(rows [][]float64, ar *arena) *matrixIndex {
	idx := &matrixIndex{rows: rows, k: len(rows), dense: true, ar: ar}
	if idx.k == 0 {
		idx.col = nil
		return idx
	}
	idx.m = len(rows[0])
	// Row sums, four rows at a time: the dense path's row shifts, and the
	// missing-entry check. NaN propagates through addition, so a row whose
	// sum is not NaN holds no missing entry; only a NaN sum (a missing
	// entry, or infinities cancelling) needs the row scanned.
	idx.shift = ar.grab(idx.k)
	for i := 0; i < idx.k; i += 4 {
		l := lanes4(i, idx.k)
		r := pick4(rows, l)
		for q, sum := range sum4(&r) {
			idx.shift[l[q]] = sum
		}
	}
	for i, sum := range idx.shift {
		if math.IsNaN(sum) && slices.ContainsFunc(rows[i], stats.IsMissing) {
			idx.dense = false
			break
		}
	}
	idx.col = columnMeansInto(rows, ar.grab(idx.m))
	if !idx.dense {
		idx.shift = nil
		idx.missPre = make([][]int32, idx.k)
		mpBack := make([]int32, idx.k*(idx.m+1)) // one backing array for all rows
		for i := 0; i < idx.k; i++ {
			mp := mpBack[i*(idx.m+1) : (i+1)*(idx.m+1) : (i+1)*(idx.m+1)]
			for j, v := range rows[i] {
				mp[j+1] = mp[j]
				if stats.IsMissing(v) {
					mp[j+1]++
				}
			}
			idx.missPre[i] = mp
		}
		return idx
	}

	for i, sum := range idx.shift {
		idx.shift[i] = 0
		if idx.m > 0 {
			idx.shift[i] = sum / float64(idx.m) //lint:ignore indexunit m is the sample count of the row mean here, not a metre distance
		}
	}
	idx.shifted = make([][]float64, idx.k)
	idx.preSum = make([][]float64, idx.k)
	idx.preSq = make([][]float64, idx.k)
	// One backing array per matrix, not per row: k rows of identical
	// length subslice flat buffers, cutting the construction from 3k+4
	// allocations to 7 — and the arena pools those flat buffers across
	// resolves, so a steady-state query allocates only the row headers.
	shBack := ar.grab(idx.k * idx.m)
	psBack := ar.grab(idx.k * (idx.m + 1))
	pqBack := ar.grab(idx.k * (idx.m + 1))
	for i := 0; i < idx.k; i++ {
		idx.shifted[i] = shBack[i*idx.m : (i+1)*idx.m : (i+1)*idx.m]
		idx.preSum[i] = psBack[i*(idx.m+1) : (i+1)*(idx.m+1) : (i+1)*(idx.m+1)]
		idx.preSq[i] = pqBack[i*(idx.m+1) : (i+1)*(idx.m+1) : (i+1)*(idx.m+1)]
	}
	for a := 0; a < idx.k; a += 2 {
		b := min(a+1, idx.k-1)
		shiftPrefix2(rows[a], rows[b], idx.shift[a], idx.shift[b],
			idx.shifted[a], idx.shifted[b], idx.preSum[a], idx.preSum[b], idx.preSq[a], idx.preSq[b])
	}

	var colSum float64
	for _, v := range idx.col {
		colSum += v
	}
	if idx.m > 0 {
		idx.colShift = colSum / float64(idx.m) //lint:ignore indexunit m is the sample count of the column-mean shift, not a metre distance
	}
	idx.colShifted = ar.grab(idx.m)
	idx.colPre = ar.grab(idx.m + 1)
	idx.colPreSq = ar.grab(idx.m + 1)
	idx.colPre[0], idx.colPreSq[0] = 0, 0
	for j, v := range idx.col {
		d := v - idx.colShift
		idx.colShifted[j] = d
		idx.colPre[j+1] = idx.colPre[j] + d
		idx.colPreSq[j+1] = idx.colPreSq[j] + float64(d*d)
	}
	return idx
}

// segmentDense reports whether rows[i][lo:lo+w) holds no missing entry for
// any row — O(k) via the missing-count prefixes.
func (idx *matrixIndex) segmentDense(lo, w int) bool {
	if idx.dense {
		return true
	}
	for i := 0; i < idx.k; i++ {
		if idx.missPre[i][lo+w]-idx.missPre[i][lo] > 0 {
			return false
		}
	}
	return true
}

// columnMeansInto averages each column over rows into out (len(a[0])
// cells, every one written), skipping missing values. Each column's sum is
// one chain in row order; four columns are summed side by side (the spare
// lanes of the last group repeat the last column).
func columnMeansInto(a [][]float64, out []float64) []float64 {
	m := len(a[0])
	for j := 0; j < m; j += 4 {
		l := lanes4(j, m)
		var s0, s1, s2, s3 float64
		var n0, n1, n2, n3 int
		for _, row := range a {
			if v := row[l[0]]; !stats.IsMissing(v) {
				s0 += v
				n0++
			}
			if v := row[l[1]]; !stats.IsMissing(v) {
				s1 += v
				n1++
			}
			if v := row[l[2]]; !stats.IsMissing(v) {
				s2 += v
				n2++
			}
			if v := row[l[3]]; !stats.IsMissing(v) {
				s3 += v
				n3++
			}
		}
		out[l[0]], out[l[1]], out[l[2]], out[l[3]] = colMean(s0, n0), colMean(s1, n1), colMean(s2, n2), colMean(s3, n3)
	}
	return out
}

// colMean is sum/n, or Missing for a column with no valid entry.
func colMean(sum float64, n int) float64 {
	if n == 0 {
		return stats.Missing
	}
	return sum / float64(n)
}

// segScratch holds the per-segment scratch buffers a segScorer materializes
// (reference deviations and their statistics). Pooled: a platoon-scale
// batch runs 2·NumSYN segment scans per pair, and the engine's workers
// churn through them concurrently.
type segScratch struct {
	devBack []float64   // backing array for dev rows (k·w)
	dev     [][]float64 // row headers into devBack
	colDev  []float64
	devSum  []float64
	devVar  []float64
	invVx   []float64 // 1/√devVar, 0 when the reference row is degenerate
	colR    []float64 // per-placement column correlations for the pruned scan
}

var segPool = sync.Pool{New: func() any { return new(segScratch) }}

// grow readies the scratch for k rows × w columns.
func (s *segScratch) grow(k, w int) {
	if cap(s.devBack) < k*w {
		s.devBack = make([]float64, k*w)
	}
	s.devBack = s.devBack[:k*w]
	if cap(s.dev) < k {
		s.dev = make([][]float64, k)
	}
	s.dev = s.dev[:k]
	for i := 0; i < k; i++ {
		s.dev[i] = s.devBack[i*w : (i+1)*w]
	}
	if cap(s.colDev) < w {
		s.colDev = make([]float64, w)
	}
	s.colDev = s.colDev[:w]
	for _, p := range []*[]float64{&s.devSum, &s.devVar, &s.invVx} {
		if cap(*p) < k {
			*p = make([]float64, k)
		}
		*p = (*p)[:k]
	}
}

// growColR readies the column-correlation buffer for n placements.
func (s *segScratch) growColR(n int) []float64 {
	if cap(s.colR) < n {
		s.colR = make([]float64, n)
	}
	s.colR = s.colR[:n]
	return s.colR
}

// segScorer scores the trajectory correlation between one fixed reference
// segment — src.rows[i][lo:lo+w) — and every same-length window of the
// target matrix, in O(k·w) per position after the shared O(k·m)
// preprocessing held by the two indexes.
type segScorer struct {
	src, tgt *matrixIndex
	lo, w    int
	dense    bool // fast path valid: ref segment and whole target dense
	noCol    bool // ablation: drop Eq. 2's column-mean term

	// Dense path, per reference row: deviations from the row's exact
	// segment mean (two-pass, matching stats.Pearson's accumulation), the
	// (tiny) deviation sum, and the deviation sum of squares.
	scratch *segScratch
	// Column term: deviations of the reference column means.
	refColDevSum, refColVar float64
	colInvVx                float64 // 1/√refColVar, 0 when degenerate

	// planned reports that the Searcher planned this window length on the
	// target (ensureWindowStats). Planned scorers score through the
	// correlation kernel and may run the bounded scan; unplanned ones —
	// e.g. directly constructed scorers in tests — fall back to
	// pearsonFromSums with per-position variance differences.
	planned bool

	// floor is the segment's coherency threshold: a placement scoring below
	// it can never become a SYN, so the bounded scan stops scoring it (see
	// scanCut). The Searcher sets it per segment; directly constructed
	// scorers keep -Inf and return the exact maximum.
	floor float64

	// Scan telemetry, accumulated as plain ints during the placement loops
	// and flushed to the searcher's counters once per direction scan:
	// visited placements had their channel term entered, pruned ones were
	// rejected on the column-term bound alone, and abandoned ones (a subset
	// of visited) were dropped part-way through the channel term.
	visited, pruned, abandoned int
}

// newSegScorer prepares a reference segment scorer. Degenerate inputs
// (k == 0, w <= 0, segment out of range) yield a scorer with no positions
// instead of a panic.
func newSegScorer(src, tgt *matrixIndex, lo, w int, noCol bool) *segScorer {
	s := &segScorer{src: src, tgt: tgt, lo: lo, w: w, noCol: noCol, floor: math.Inf(-1)}
	if src.k == 0 || tgt.k == 0 || w <= 0 || lo < 0 || lo+w > src.m {
		s.w = 0
		return s
	}
	s.dense = tgt.dense && src.segmentDense(lo, w)
	if !s.dense {
		return s
	}
	s.planned = tgt.planned(w)
	sc := segPool.Get().(*segScratch)
	sc.grow(src.k, w)
	s.scratch = sc
	// Segment means (devSum holds them until the deviation pass), then the
	// deviations and their moments.
	for i := 0; i < src.k; i += 4 {
		l := lanes4(i, src.k)
		r := pick4(src.rows, l)
		for q := range r {
			r[q] = r[q][lo : lo+w]
		}
		for q, sum := range sum4(&r) {
			sc.devSum[l[q]] = sum / float64(w)
		}
	}
	for a := 0; a < src.k; a += 2 {
		b := min(a+1, src.k-1)
		sa, qa, sb, qb := deviations2(src.rows[a][lo:lo+w], src.rows[b][lo:lo+w], sc.devSum[a], sc.devSum[b], sc.dev[a], sc.dev[b])
		sc.devSum[a], sc.devVar[a], sc.devSum[b], sc.devVar[b] = sa, qa, sb, qb
	}
	for i, dvar := range sc.devVar {
		sc.invVx[i] = 0
		if dvar > 0 {
			sc.invVx[i] = 1 / math.Sqrt(dvar)
		}
	}
	if !noCol {
		// Reference column means are a slice of the source's column means
		// (the segment's columns are the source's columns).
		refCol := src.col[lo : lo+w]
		var sum float64
		for _, v := range refCol {
			sum += v
		}
		mean := sum / float64(w)
		var dsum, dvar float64
		for u, v := range refCol {
			d := v - mean
			sc.colDev[u] = d
			dsum += d
			dvar += float64(d * d)
		}
		s.refColDevSum = dsum
		s.refColVar = dvar
		if dvar > 0 {
			s.colInvVx = 1 / math.Sqrt(dvar)
		}
	}
	return s
}

// release returns the scratch buffers to the pool. The scorer must not be
// used afterwards.
func (s *segScorer) release() {
	if s.scratch != nil {
		segPool.Put(s.scratch)
		s.scratch = nil
	}
}

// positions returns how many window placements exist on the target.
func (s *segScorer) positions() int {
	if s.w <= 0 || s.tgt.k == 0 {
		return 0
	}
	if n := s.tgt.m - s.w + 1; n > 0 {
		return n
	}
	return 0
}

// scoreAt returns the trajectory correlation of the reference segment
// against the target window starting at column j.
func (s *segScorer) scoreAt(j int) float64 {
	if s.positions() == 0 {
		return 0
	}
	if !s.dense {
		return s.scoreSlow(j)
	}
	if s.noCol {
		return s.chanTerm(j)
	}
	return s.chanTerm(j) + s.colTerm(j)
}

// chanTerm is Eq. 2's first term: the mean per-channel Pearson correlation
// of the reference segment against the target window at j (dense path).
// Planned scorers sum through chanSum, so a bounded scan's score is the
// same bits as scoreAt's; otherwise the full variance difference is formed
// per position.
func (s *segScorer) chanTerm(j int) float64 {
	if s.planned {
		sum, _ := s.chanSum(j, 0, nil)
		return sum / float64(s.src.k)
	}
	wf := float64(s.w)
	sc := s.scratch
	var chanSum float64
	for i := 0; i < s.src.k; i++ {
		ps := s.tgt.preSum[i]
		pq := s.tgt.preSq[i]
		sy := ps[j+s.w] - ps[j]
		sqy := pq[j+s.w] - pq[j]
		sxy := dot(sc.dev[i], s.tgt.shifted[i][j:j+s.w])
		chanSum += pearsonFromSums(wf, sc.devSum[i], sc.devVar[i], sy, sqy, sxy)
	}
	return chanSum / float64(s.src.k)
}

// abandonEvery is how many channels chanSum accumulates between checks of
// its early-abandon bound: one correlation-kernel call (corr4 has four
// lanes, and chanSum fills them with lanes4).
const abandonEvery = 4

// abandonSlack pads chanSum's partial bound before it is tested against
// the scan cut. The bound is exact in real arithmetic; the slack absorbs
// the rounding that separates the floating-point bound from the
// floating-point score (see chanSum).
const abandonSlack = 1e-9

// chanSum sums the per-channel correlations of the placement at j on the
// planned dense path: channels go through the correlation kernel
// abandonEvery at a time (corr4: per channel one dot product, the target
// window's 1/√variance from the prefix tables, two multiplies and the
// clamp), and their r are added in channel order. When k is not a multiple
// of four the last block's spare lanes repeat channel k−1 and are not
// added.
//
// With a non-nil cut, chanSum abandons the placement (ok false) once it is
// provably dead. Every r is clamped to ≤ 1, so after i of k channels the
// placement's score sum/k + cr is at most (partial + (k−i))/k + cr; after
// every block that bound, plus abandonSlack, is tested with cut.dead.
// Channels are accumulated in the same order either way, so a placement
// that is not abandoned returns the same bits as chanTerm.
//
// Rounding. In real arithmetic over the r values actually computed, the
// bound dominates the score. The floating-point score and bound are each
// sums of at most k terms of magnitude ≤ 1 (partial sums ≤ k), so each
// differs from its real value by less than k²·2⁻⁵³ on the channel-sum
// scale — under 5·10⁻¹² at the 194-channel maximum, under 3·10⁻¹⁴ once
// divided by k and shifted by cr (|cr| ≤ 1). abandonSlack is four orders
// of magnitude larger, so an abandoned placement's computed score is
// strictly below its padded bound: below the incumbent (which it would
// have had to beat strictly), below the floor, or losing to the seed.
// Rounding therefore cannot drop a placement that would have won.
func (s *segScorer) chanSum(j int, cr float64, cut *scanCut) (sum float64, ok bool) {
	k := s.src.k
	kf := float64(k)
	w := s.w
	sc := s.scratch
	tgt := s.tgt
	var b corrBlock
	for i := 0; i < k; i += abandonEvery {
		for c, ch := range lanes4(i, k) {
			b.x[c] = sc.dev[ch][:w]
			b.y[c] = tgt.shifted[ch][j : j+w]
			ps, pq := tgt.preSum[ch], tgt.preSq[ch]
			b.sLo[c], b.sHi[c] = ps[j], ps[j+w]
			b.qLo[c], b.qHi[c] = pq[j], pq[j+w]
			b.sx[c], b.ix[c] = sc.devSum[ch], sc.invVx[ch]
		}
		corr4(&b, w, float64(w))
		for _, r := range b.r[:min(abandonEvery, k-i)] {
			sum += r
		}
		if cut != nil && i+abandonEvery < k && cut.dead((sum+float64(k-i-abandonEvery))/kf+cr+abandonSlack) {
			return sum, false
		}
	}
	return sum, true
}

// colTerm is Eq. 2's second term: the correlation of the column means
// (dense path).
func (s *segScorer) colTerm(j int) float64 {
	if s.planned {
		var r [1]float64
		s.colTerms(j, r[:])
		return r[0]
	}
	wf := float64(s.w)
	sy := s.tgt.colPre[j+s.w] - s.tgt.colPre[j]
	sxy := dot(s.scratch.colDev[:s.w], s.tgt.colShifted[j:j+s.w])
	sqy := s.tgt.colPreSq[j+s.w] - s.tgt.colPreSq[j]
	return pearsonFromSums(wf, s.refColDevSum, s.refColVar, sy, sqy, sxy)
}

// colTerms fills out[q] with the column term of placement lo+q on the
// planned dense path, four placements per kernel call: the lanes share the
// reference column deviations and slide the target window (spare lanes of
// the last call repeat its last placement).
func (s *segScorer) colTerms(lo int, out []float64) {
	w := s.w
	tgt := s.tgt
	var b corrBlock
	for c := range b.x {
		b.x[c] = s.scratch.colDev[:w]
		b.sx[c], b.ix[c] = s.refColDevSum, s.colInvVx
	}
	for q := 0; q < len(out); q += 4 {
		for c, p := range lanes4(q, len(out)) {
			j := lo + p
			b.y[c] = tgt.colShifted[j : j+w]
			b.sLo[c], b.sHi[c] = tgt.colPre[j], tgt.colPre[j+w]
			b.qLo[c], b.qHi[c] = tgt.colPreSq[j], tgt.colPreSq[j+w]
		}
		corr4(&b, w, float64(w))
		copy(out[q:], b.r[:])
	}
}

// scoreSlow is the missing-tolerant fallback. Pearson documents a 0 return
// for degenerate windows, but a NaN slipping through here would poison the
// best-window scan (NaN compares false with every score), so each term is
// guarded before it joins the sum.
func (s *segScorer) scoreSlow(j int) float64 {
	var chanSum float64
	for i := 0; i < s.src.k; i++ {
		r := stats.Pearson(s.src.rows[i][s.lo:s.lo+s.w], s.tgt.rows[i][j:j+s.w])
		if math.IsNaN(r) {
			continue
		}
		chanSum += r
	}
	chanSum /= float64(s.src.k)
	if s.noCol {
		return chanSum
	}
	colR := stats.Pearson(s.src.col[s.lo:s.lo+s.w], s.tgt.col[j:j+s.w])
	if math.IsNaN(colR) {
		colR = 0
	}
	return chanSum + colR
}

// pearsonFromSums computes Pearson's r from moment sums, matching
// stats.Pearson's conventions (0 for degenerate inputs, clamped to [-1,1]).
//
// Numerical contract: callers accumulate the sums about a per-vector shift
// (the fast path shifts x by the exact segment mean and y by the target
// row's matrix-wide mean), so sx, sqx, sy, sqy arrive at deviation scale
// and the variance differences below cannot catastrophically cancel. With
// raw −100 dBm moments the old sqy − sy²/n form lost up to eight digits on
// low-variance rows and could diverge from the two-pass stats.Pearson.
// Pearson's r is invariant under constant shifts, so the formula is
// unchanged — only its inputs are pre-centred.
func pearsonFromSums(n, sx, sqx, sy, sqy, sxy float64) float64 {
	vx := sqx - sx*sx/n
	vy := sqy - sy*sy/n
	if vx <= 0 || vy <= 0 {
		return 0
	}
	r := (sxy - sx*sy/n) / math.Sqrt(vx*vy)
	if r > 1 {
		return 1
	}
	if r < -1 {
		return -1
	}
	return r
}

// bestWindowIn scans the window placements j ∈ [lo, hi] (clamped to the
// valid range) and returns the best-scoring position and score. A
// position of -1 with score -Inf means the range was empty.
func (s *segScorer) bestWindowIn(lo, hi int) (pos int, score float64) {
	return s.bestWindowInFrom(lo, hi, -1)
}

// bestWindowInFrom is bestWindowIn with an explicit scan pivot: the bounded
// scan starts at pivot and expands outward, so a warm-start hint placing
// the pivot on the true match establishes a strong incumbent immediately
// and the column-term bound prunes the rest of the range. A pivot outside
// [lo, hi] (including the cold sentinel -1) falls back to the range
// midpoint. The pivot only reorders evaluation — the returned maximum is
// identical for every pivot, which is what makes warm-started results
// exactly equal to the cold oracle's.
//
// On the dense bounded path the scan also prunes against s.floor (see
// scanBounded): when the range's maximum is ≥ the floor it is returned
// bit-exactly, otherwise the result is some score below the floor (or -1,
// -Inf). The sparse path and the NoColumnTerm ablation scan every
// placement.
func (s *segScorer) bestWindowInFrom(lo, hi, pivot int) (pos int, score float64) {
	lo, hi = clampRange(lo, hi, s.positions())
	if hi < lo {
		return -1, math.Inf(-1)
	}
	if s.canBound() {
		return s.scanBounded(lo, hi, pivot, math.Inf(-1), true)
	}
	best := math.Inf(-1)
	bestJ := -1
	s.visited += hi - lo + 1
	for j := lo; j <= hi; j++ {
		if sc := s.scoreAt(j); sc > best {
			best = sc
			bestJ = j
		}
	}
	return bestJ, best
}

// bestWindow scans every window placement.
func (s *segScorer) bestWindow() (pos int, score float64) {
	return s.bestWindowIn(0, s.positions()-1)
}

// canBound reports whether the dense bounded path — and with it the
// column-term bound scanBounded relies on — is available for this scorer.
func (s *segScorer) canBound() bool {
	return s.dense && !s.noCol && s.planned && s.positions() > 0
}

// bestWindowSeededIn scans [lo, hi] like bestWindowIn but also prunes
// against a cross-direction seed: the other direction's exact score, which
// this direction must beat for combine to pick it. Placements whose bound
// cannot reach the seed are skipped, so a direction holding no real
// alignment costs about one column sweep. tiesWin states combine's tie
// rule for this direction (AB wins exact score ties, BA loses them): a
// ties-win direction keeps placements that can merely *equal* the seed, a
// ties-lose direction prunes them too.
//
// The returned best is exact whenever it would win combine against the
// seed and reaches the floor — a winning placement j has a bound ≥
// score(j) ≥ (or >) seed and is never pruned. Otherwise the result may
// undercount, but every skipped placement provably loses combine to the
// seeding direction or misses the threshold, so combine's outcome equals
// the cold full scan's either way.
func (s *segScorer) bestWindowSeededIn(lo, hi int, seed float64, tiesWin bool) (pos int, score float64) {
	lo, hi = clampRange(lo, hi, s.positions())
	if hi < lo {
		return -1, math.Inf(-1)
	}
	if !s.canBound() {
		return s.bestWindowInFrom(lo, hi, -1)
	}
	return s.scanBounded(lo, hi, -1, seed, tiesWin)
}

// scanCut is what a placement's score must clear to change a bounded
// direction scan's answer: strictly beat the incumbent best, reach the
// segment's coherency floor (a score equal to the threshold is accepted),
// and win combine against the cross-direction seed under tiesWin. An
// unseeded scan carries seed -Inf.
type scanCut struct {
	best, floor, seed float64
	tiesWin           bool
}

// dead reports whether a placement whose score is at most bound can no
// longer change the answer.
func (c *scanCut) dead(bound float64) bool {
	//lint:ignore floatcmp combine's tie rule is exact score equality (clamped correlations tie at exactly 2); an epsilon would change which direction wins
	return bound <= c.best || bound < c.floor || bound < c.seed || (!c.tiesWin && bound == c.seed)
}

// scanBounded is the dense-path branch-and-bound scan over the clamped,
// non-empty range [lo, hi], cut against s.floor and the cross-direction
// seed (-Inf when unseeded) under tiesWin. Eq. 2's per-channel mean term
// is a mean of clamped correlations, so it never exceeds 1, and a
// placement can only matter when its (cheap, single-dot) column term gives
// colR + 1 a live bound under the cut (see scanCut.dead). Column terms are evaluated first for
// the whole range; placements are then visited pivot-outward (an
// out-of-range pivot means the midpoint). A cold scan pivots on the range
// midpoint (the aligned position, where the locality bound expects the
// match); a warm-started scan pivots on the tracker's predicted placement.
// Either way a strong incumbent appears early, and a placement that
// survives the column bound is still abandoned inside its channel term as
// soon as its partial bound dies (chanSum).
//
// Exactness: a placement with the range's maximum score M ≥ max(floor,
// seed) — strictly above a ties-lose seed — is never pruned or abandoned
// unless an earlier-visited placement already holds M, so the scan returns
// the same (pos, M) as a full scan in the same order. Every other result is
// a maximum over a subset of exact scores, so it never exceeds M and stays
// below the floor or loses to the seed.
func (s *segScorer) scanBounded(lo, hi, pivot int, seed float64, tiesWin bool) (pos int, score float64) {
	if pivot < lo || pivot > hi {
		pivot = lo + (hi-lo)/2
	}
	colR := s.scratch.growColR(hi - lo + 1)
	s.colTerms(lo, colR)
	cut := scanCut{best: math.Inf(-1), floor: s.floor, seed: seed, tiesWin: tiesWin}
	kf := float64(s.src.k)
	bestJ := -1
	visit := func(j int) {
		cr := colR[j-lo]
		if cut.dead(cr + 1) {
			s.pruned++
			return
		}
		s.visited++
		sum, ok := s.chanSum(j, cr, &cut)
		if !ok {
			s.abandoned++
			return
		}
		if sc := sum/kf + cr; sc > cut.best {
			cut.best = sc
			bestJ = j
		}
	}
	visit(pivot)
	for d := 1; pivot+d <= hi || pivot-d >= lo; d++ {
		if pivot+d <= hi {
			visit(pivot + d)
		}
		if pivot-d >= lo {
			visit(pivot - d)
		}
	}
	return bestJ, cut.best
}
