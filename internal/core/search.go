package core

import (
	"bytes"
	"encoding/binary"
	"math"
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
// selected power matrix (k channel rows × m metres). A Searcher holds one
// index per side and shares both across all NumSYN segment offsets and
// both sliding directions — the O(k·m) preprocessing of the paper's §V-A
// complexity argument is paid once per query instead of 2·NumSYN times,
// and the resolver's index (ResolverSide) once per resolver snapshot when
// its side is shared among peers.
//
// The index holds the rows as power cells (trajectory.CellByte: whole dB
// above the noise floor, 0–254), and every dense-path moment is an exact
// integer: row prefix sums of the cells and of their squares, and column
// sums. Pearson's r is invariant under a constant shift and a positive
// scale of either vector, so correlating cells instead of dBm, and column
// sums instead of column means (a dense column has all k entries), leaves
// r unchanged; and exact moments cannot cancel, so nothing is re-centred.
//
// A Searcher's index covers only the scan's reach: the last
// Params.scanReach columns of the clipped context, which hold every cell
// a direction scan reads. base is the context column of index column 0;
// the scorer takes context columns and translates (segScorer.scan).
type matrixIndex struct {
	k, m int
	base int
	// cells holds row i's m cells at cells[i·stride:], each row followed
	// by cellPad zero bytes (grabCells).
	cells  []uint8
	stride int
	// dense reports no MissingCell in the selected channels anywhere in
	// the context — before base too. A sparse context scores every
	// placement through stats.Pearson, whose bits differ from the integer
	// kernel's, so the verdict must not depend on how much is indexed.
	dense bool
	// missPre[i][j] counts missing cells in row i over [0, j); built only
	// when the matrix is not dense, so segment density checks stay O(k).
	missPre [][]int32

	// pre[i·(m+1)+j] holds Σ and Σ² of row i's cells over [0, j). A missing
	// cell counts 0, so the tables also serve the dense segments of a
	// sparse index.
	pre []rowPre
	// colSum[j] is the sum of column j's present cells (an exact integer
	// in float64, the column kernel's input); colPre and colPreSq are its
	// prefix sums and prefix sums of squares.
	colSum, colPre, colPreSq []float64

	// Sparse segments (materialize): the rows as dBm and the
	// missing-skipping column means that chanSum and colTerms correlate
	// there; nil until materialized.
	rows [][]float64
	col  []float64

	// ar is the owning Searcher's or ResolverSide's bump allocator (nil
	// for directly constructed indexes, which then fall back to plain
	// allocation).
	ar *arena
}

// rowPre is one entry of a row's prefix tables: the sum of the cells
// before it and the sum of their squares. m·254² < 2³¹ (Params.validate),
// so both fit int32.
type rowPre struct{ s, q int32 }

// cellPad is the zero tail after each index row: the channel kernel reads
// whole 16-cell steps, up to 15 cells past a window's end.
const cellPad = 16

// newMatrixIndex builds the index of a dBm power matrix, quantizing every
// entry through trajectory.CellByte the way stored cells are (stats.Missing
// becomes MissingCell), with the dBm rows materialized. Tests build
// indexes this way; the Searcher copies cells straight from the
// trajectory (newTrajectoryIndex). A zero-row or zero-column matrix yields
// a valid index with no window positions rather than a panic.
func newMatrixIndex(rows [][]float64) *matrixIndex {
	k, m := len(rows), 0
	if k > 0 {
		m = len(rows[0])
	}
	cells := grabCells(nil, k, m)
	dense := true
	for i, row := range rows {
		dst := cells[i*(m+cellPad) : i*(m+cellPad)+m]
		for j, v := range row {
			dst[j] = trajectory.CellByte(v)
		}
		dense = dense && bytes.IndexByte(dst, trajectory.MissingCell) < 0
	}
	idx := newCellIndex(cells, k, m, dense, nil)
	idx.materialize()
	return idx
}

// newTrajectoryIndex indexes the given channels of a over its last reach
// metres (all of them when a is shorter): their cells are copied as bytes
// (CopyCellsInto writes every cell, grabCells every pad, satisfying the
// arena's no-zeroing contract). The dense verdict covers all of a.
func newTrajectoryIndex(a *trajectory.Aware, channels []int, reach int, ar *arena) *matrixIndex {
	k, n := len(channels), a.Len()
	base := max(n-reach, 0)
	m := n - base
	cells := grabCells(ar, k, m)
	for i, ch := range channels {
		a.CopyCellsInto(ch, base, cells[i*(m+cellPad):i*(m+cellPad)+m])
	}
	idx := newCellIndex(cells, k, m, !a.HasMissing(channels, 0, n), ar)
	idx.base = base
	return idx
}

// grabCells returns memory for k rows of m cells in the index layout (row
// i at [i·(m+cellPad), i·(m+cellPad)+m)) with every row's pad zeroed; the
// caller writes the cells.
func grabCells(ar *arena, k, m int) []uint8 {
	stride := m + cellPad
	cells := ar.bytes(k * stride)
	for i := 0; i < k; i++ {
		clear(cells[i*stride+m : (i+1)*stride])
	}
	return cells
}

// newCellIndex builds the shared precomputation over k rows of m cells
// laid out by grabCells, with its tables grabbed from ar (plain allocation
// when ar is nil). dense is the caller's verdict that no selected cell is
// missing (see matrixIndex.dense); a missing cell in the rows requires it
// false. Arena memory is unzeroed, so every table cell is written
// explicitly — in particular the prefix-table [0] sentinels.
func newCellIndex(cells []uint8, k, m int, dense bool, ar *arena) *matrixIndex {
	idx := &matrixIndex{k: k, m: m, cells: cells, stride: m + cellPad, dense: dense, ar: ar}
	if k == 0 {
		return idx
	}
	// Row prefix tables: integer running sums, exact in any order. A
	// missing cell counts 0.
	idx.pre = ar.pres(k * (m + 1))
	for i := 0; i < k; i++ {
		row := idx.row(i)
		p := idx.pre[i*(m+1) : (i+1)*(m+1)]
		p[0] = rowPre{}
		p = p[1 : len(row)+1]
		var s, q int32
		for j, b := range row {
			v := int32(b)
			if b == trajectory.MissingCell {
				v = 0
			}
			s += v
			q += v * v
			p[j] = rowPre{s, q}
		}
	}
	col := ar.floats(m)
	idx.columnSums(col)
	idx.colSum = col
	idx.colPre, idx.colPreSq = ar.floats(m+1), ar.floats(m+1)
	idx.colPre[0], idx.colPreSq[0] = 0, 0
	for j, v := range col {
		idx.colPre[j+1] = idx.colPre[j] + v
		idx.colPreSq[j+1] = idx.colPreSq[j] + float64(v*v)
	}
	if !idx.dense {
		idx.missPre = make([][]int32, k)
		mpBack := make([]int32, k*(m+1)) // one backing array for all rows
		for i := 0; i < k; i++ {
			mp := mpBack[i*(m+1) : (i+1)*(m+1) : (i+1)*(m+1)]
			for j, b := range idx.row(i) {
				mp[j+1] = mp[j]
				if b == trajectory.MissingCell {
					mp[j+1]++
				}
			}
			idx.missPre[i] = mp
		}
	}
	return idx
}

// columnSums writes the sum of each column's present cells into col (m
// cells). A dense matrix of at most colLaneRows rows sums eight columns
// per 64-bit word read, the even and the odd bytes in four 16-bit lanes
// each (k·254 < 2¹⁶, so no lane carries into the next); the last word of
// a row reads up to 7 bytes into its zero pad. Anything else — a missing
// cell, or more rows — goes one cell at a time.
func (idx *matrixIndex) columnSums(col []float64) {
	k, m := idx.k, idx.m
	if !idx.dense || k > colLaneRows {
		clear(col)
		for i := 0; i < k; i++ {
			for j, b := range idx.row(i) {
				if b != trajectory.MissingCell {
					col[j] += float64(b)
				}
			}
		}
		return
	}
	const bytes16 = 0x00FF00FF00FF00FF
	for j := 0; j < m; j += 8 {
		var even, odd uint64
		for i := 0; i < k; i++ {
			v := binary.LittleEndian.Uint64(idx.cells[i*idx.stride+j:])
			even += v & bytes16
			odd += v >> 8 & bytes16
		}
		for u := 0; u < 8 && j+u < m; u++ {
			lanes := even
			if u%2 == 1 {
				lanes = odd
			}
			col[j+u] = float64(lanes >> (16 * (u / 2)) & 0xFFFF)
		}
	}
}

// colLaneRows is the most rows whose column sums fit a 16-bit lane.
const colLaneRows = math.MaxUint16 / cellMax

// row returns row i's m cells.
func (idx *matrixIndex) row(i int) []uint8 {
	return idx.cells[i*idx.stride : i*idx.stride+idx.m]
}

// rowSums returns Σ and Σ² of row i's cells over [lo, lo+w).
func (idx *matrixIndex) rowSums(i, lo, w int) (s, q int32) {
	p := idx.pre[i*(idx.m+1):]
	a, b := p[lo], p[lo+w]
	return b.s - a.s, b.q - a.q
}

// materialize decodes the rows to dBm (trajectory.CellDBm) and computes
// their missing-skipping column means: a sparse segment's inputs. The
// Searcher materializes both indexes when either is sparse, before the
// scans fan out; a dense pair never pays for it. It writes the index, so
// it runs once per index (a shared resolver side guards it with a
// sync.Once).
func (idx *matrixIndex) materialize() {
	if idx.k == 0 {
		return
	}
	back := idx.ar.floats(idx.k * idx.m)
	idx.rows = make([][]float64, idx.k)
	for i := range idx.rows {
		row := back[i*idx.m : (i+1)*idx.m : (i+1)*idx.m]
		for j, b := range idx.row(i) {
			row[j] = trajectory.CellDBm(b)
		}
		idx.rows[i] = row
	}
	idx.col = columnMeansInto(idx.rows, idx.ar.floats(idx.m))
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

// segScratch holds the per-segment scratch buffers a segScorer fills: the
// channel kernel's lane table and the bounded scan's column correlations.
// Pooled: a platoon-scale batch runs 2·NumSYN segment scans per pair, and
// the engine's workers churn through them concurrently.
type segScratch struct {
	lanes []chanLanes // one entry per block of four channels
	colR  []float64   // per-placement column correlations for the bounded scan
}

var segPool = sync.Pool{New: func() any { return new(segScratch) }}

// growLanes readies the lane table for k channels.
func (s *segScratch) growLanes(k int) []chanLanes {
	nb := (k + abandonEvery - 1) / abandonEvery
	if cap(s.lanes) < nb {
		s.lanes = make([]chanLanes, nb)
	}
	s.lanes = s.lanes[:nb]
	return s.lanes
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
// segment — src's rows over [lo, lo+w) — and every same-length window of
// the target matrix, in O(k·w) per position after the shared O(k·m)
// preprocessing held by the two indexes. Only the scoring of one placement
// depends on the segment (chanSum, colTerms); every scorer runs the same
// bounded scan. Columns are index columns inside the scorer (lo is the
// segment's column in src); newSegScorer and scan take context columns.
type segScorer struct {
	src, tgt *matrixIndex
	lo, w    int
	dense    bool // kernel path: ref segment and whole target dense
	noCol    bool // ablation: drop Eq. 2's column-mean term

	// The pooled buffers, and on the dense path the channel kernel's table
	// (its lanes in scratch).
	chans   chanTable
	scratch *segScratch
	// Dense column term: the reference's column sums (a slice of the
	// source's), their sum, and their 1/√(w·Σx² − (Σx)²) (0 when
	// degenerate).
	refCol    []float64
	refColSum float64
	colInvVx  float64

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

// newSegScorer prepares a scorer for the reference segment at context
// column lo of src. Degenerate inputs (k == 0, w <= 0, segment outside
// the index) yield a scorer with no positions instead of a panic.
func newSegScorer(src, tgt *matrixIndex, lo, w int, noCol bool) *segScorer {
	lo -= src.base
	s := &segScorer{src: src, tgt: tgt, lo: lo, w: w, noCol: noCol, floor: math.Inf(-1)}
	if src.k == 0 || tgt.k == 0 || w <= 0 || lo < 0 || lo+w > src.m {
		s.w = 0
		return s
	}
	sc := segPool.Get().(*segScratch)
	s.scratch = sc
	s.dense = tgt.dense && src.segmentDense(lo, w)
	if !s.dense {
		return s
	}
	// The lane table: row offsets, and the reference statistics from two
	// prefix lookups per row. No cell is touched; the kernel reads both
	// sides in place.
	wf := float64(w)
	s.chans = chanTable{ref: src.cells, tgt: tgt.cells, pre: tgt.pre, lanes: sc.growLanes(src.k), k: src.k, w: w, tail: tailMask(w)}
	for g := range s.chans.lanes {
		ln := &s.chans.lanes[g]
		for c, ch := range lanes4(g*abandonEvery, src.k) {
			sx, qx := src.rowSums(ch, lo, w)
			ln.ref[c], ln.tgt[c], ln.pre[c] = ch*src.stride+lo, ch*tgt.stride, ch*(tgt.m+1)
			ln.sx[c], ln.ix[c] = float64(sx), invNorm(wf, float64(sx), float64(qx))
		}
	}
	if !noCol {
		// The segment's columns are the source's columns: a dense segment's
		// columns hold all k cells, so their sums are the source's.
		s.refCol = src.colSum[lo : lo+w]
		s.refColSum = src.colPre[lo+w] - src.colPre[lo]
		s.colInvVx = invNorm(wf, s.refColSum, src.colPreSq[lo+w]-src.colPreSq[lo])
	}
	return s
}

// release returns the scratch buffers to the pool. The scorer must not be
// used afterwards.
func (s *segScorer) release() {
	if s.scratch != nil {
		segPool.Put(s.scratch)
		s.scratch = nil
		s.chans = chanTable{}
	}
}

// positions returns how many window placements exist on the target
// index.
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
// against the target window starting at index column j: Eq. 2, scored with
// no cut exactly as the bounded scan scores a placement it does not
// abandon.
func (s *segScorer) scoreAt(j int) float64 {
	if s.positions() == 0 {
		return 0
	}
	sum, _ := s.chanSum(j, 0, nil)
	return sum/float64(s.src.k) + s.colTerm(j)
}

// abandonEvery is how many channels the channel kernel accumulates
// between checks of its early-abandon bound: one block of four lanes.
const abandonEvery = 4

// abandonSlack pads the channel kernel's partial bound before it is tested
// against the scan cut. The bound is exact in real arithmetic; the slack
// absorbs the rounding that separates the floating-point bound from the
// floating-point score (see chanSum). kernel_amd64.s holds its bits.
const abandonSlack = 1e-9

// chanSum sums the per-channel correlations of the placement at j in
// channel order. A dense segment makes one call of the fused channel kernel
// (chanKernel: per channel an integer dot product of the cells, read in
// place, the target window's Σy and Σy² from the prefix tables, and the
// Pearson step). A segment with a missing cell takes stats.Pearson over the
// materialized dBm rows, which skips missing pairs; a NaN r adds nothing.
//
// With a non-nil cut, chanSum abandons the placement (ok false) once it is
// provably dead. Every r is clamped to ≤ 1, so after i of k channels the
// placement's score sum/k + cr is at most (partial + (k−i))/k + cr; after
// every block of four channels but the last that bound, plus abandonSlack,
// is tested against the cut's two thresholds (scanCut.fold), which is
// exactly cut.dead. Channels are accumulated in the same order either way,
// so a placement that is not abandoned returns the same bits as with no
// cut (scoreAt).
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
	le, lt := math.NaN(), math.NaN() // no cut: ordered compares never abandon
	if cut != nil {
		le, lt = cut.fold()
	}
	if s.dense {
		return chanKernel(&s.chans, j, cr, le, lt)
	}
	k, w := s.src.k, s.w
	kf := float64(k)
	for i := 0; i < k; i++ {
		r := stats.Pearson(s.src.rows[i][s.lo:s.lo+w], s.tgt.rows[i][j:j+w])
		if !math.IsNaN(r) {
			sum += r
		}
		if n := i + 1; n%abandonEvery == 0 && n < k {
			if bound := (sum+float64(k-n))/kf + cr + abandonSlack; bound <= le || bound < lt {
				return sum, false
			}
		}
	}
	return sum, true
}

// colTerm is Eq. 2's second term at placement j (colTerms).
func (s *segScorer) colTerm(j int) float64 {
	var r [1]float64
	s.colTerms(j, r[:])
	return r[0]
}

// colTerms fills out[q] with the column term of placement lo+q: 0 under
// the NoColumnTerm ablation; on a sparse segment, stats.Pearson over the
// missing-skipping column means, a NaN r counting 0; on a dense segment,
// the correlation of the column sums, four placements per kernel call (the
// lanes share the reference column sums and slide the target window; spare
// lanes of the last call repeat its last placement).
func (s *segScorer) colTerms(lo int, out []float64) {
	w := s.w
	tgt := s.tgt
	if s.noCol {
		clear(out)
		return
	}
	if !s.dense {
		ref := s.src.col[s.lo : s.lo+w]
		for q := range out {
			j := lo + q
			r := stats.Pearson(ref, tgt.col[j:j+w])
			if math.IsNaN(r) {
				r = 0
			}
			out[q] = r
		}
		return
	}
	var b corrBlock
	for c := range b.x {
		b.x[c] = s.refCol
		b.sx[c], b.ix[c] = s.refColSum, s.colInvVx
	}
	for q := 0; q < len(out); q += 4 {
		for c, p := range lanes4(q, len(out)) {
			j := lo + p
			b.y[c] = tgt.colSum[j : j+w]
			b.sy[c] = tgt.colPre[j+w] - tgt.colPre[j]
			b.qy[c] = tgt.colPreSq[j+w] - tgt.colPreSq[j]
		}
		corr4(&b, w, float64(w))
		copy(out[q:], b.r[:])
	}
}

// scan returns the best placement of j ∈ [lo, hi] (context columns,
// clamped to the placements inside the target index) and its score, or -1
// and -Inf for an empty range. It is every direction scan's one entry:
// the bounded scan cut against s.floor and the cross-direction seed (-Inf
// when unseeded). The seed is the other direction's exact score, which
// this direction must beat for combine to pick it; tiesWin states
// combine's tie rule for this direction (AB wins exact score ties, BA
// loses them). The result is the range's maximum, bit-exact, when it
// reaches the floor and wins combine against the seed, and otherwise some
// lower score that misses the floor or loses to the seed — combine's
// outcome equals that of two full scans either way.
func (s *segScorer) scan(lo, hi int, seed float64, tiesWin bool) (pos int, score float64) {
	b := s.tgt.base
	lo, hi = clampRange(lo-b, hi-b, s.positions())
	if hi < lo {
		return -1, math.Inf(-1)
	}
	if pos, score = s.scanBounded(lo, hi, seed, tiesWin); pos >= 0 {
		pos += b
	}
	return pos, score
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

// fold returns the cut as two thresholds for the channel kernel: dead(b)
// holds exactly when b ≤ le or b < lt. A ties-lose seed joins the
// incumbent's ≤ test and a ties-win seed the floor's < test, each only
// when it is larger (seed > x is false for a NaN seed, which dead ignores
// too). A NaN floor never fires in dead, so a ties-win seed replaces it.
// best is never NaN: it starts at -Inf and only takes scores that beat it.
func (c *scanCut) fold() (le, lt float64) {
	le, lt = c.best, c.floor
	if c.tiesWin {
		if c.seed > lt || math.IsNaN(lt) {
			lt = c.seed
		}
	} else if c.seed > le {
		le = c.seed
	}
	return le, lt
}

// scanBounded is the branch-and-bound scan over the clamped, non-empty
// range [lo, hi], cut against s.floor and the cross-direction seed (-Inf
// when unseeded) under tiesWin. Eq. 2's per-channel mean term is a mean of
// clamped correlations (a NaN r counts 0), so it never exceeds 1, and a
// placement can only matter when its (cheap) column term gives colR + 1 a
// live bound under the cut (see scanCut.dead); under NoColumnTerm every
// colR is 0 and only the channel term's abandon test cuts. Column terms
// are evaluated first for the whole range; placements are then visited
// outward from the range midpoint (the aligned position, where the
// locality bound expects the match), so a strong incumbent appears early,
// and a placement that survives the column bound is still abandoned inside
// its channel term as soon as its partial bound dies (chanSum).
//
// Exactness: a placement with the range's maximum score M ≥ max(floor,
// seed) — strictly above a ties-lose seed — is never pruned or abandoned
// unless an earlier-visited placement already holds M, so the scan returns
// the same (pos, M) as a full scan in the same order. Every other result is
// a maximum over a subset of exact scores, so it never exceeds M and stays
// below the floor or loses to the seed.
func (s *segScorer) scanBounded(lo, hi int, seed float64, tiesWin bool) (pos int, score float64) {
	pivot := lo + (hi-lo)/2
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
