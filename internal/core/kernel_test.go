package core

import (
	"math"
	"math/rand"
	"testing"

	"rups/internal/gsm"
	"rups/internal/trajectory"
)

// exactR is one kernel lane written out with int64 moments: the sums over
// the n elements, the brackets n·Σxy − Σx·Σy, n·Σx² − (Σx)² and
// n·Σy² − (Σy)² as exact integers, r = num·(1/√vx)·(1/√vy) with 0 when
// either variance bracket is not positive, and the ±1 clamp. Both kernels
// must return its bits in every lane whose moments stay below 2⁵³.
func exactR(x, y []int64) float64 {
	n := int64(len(x))
	var sx, qx, sy, qy, sxy int64
	for u := range x {
		sx += x[u]
		qx += x[u] * x[u]
		sy += y[u]
		qy += y[u] * y[u]
		sxy += x[u] * y[u]
	}
	vx, vy := n*qx-sx*sx, n*qy-sy*sy
	if vx <= 0 || vy <= 0 {
		return 0
	}
	r := float64(n*sxy-sx*sy) * (1 / math.Sqrt(float64(vx))) * (1 / math.Sqrt(float64(vy)))
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r
}

// refStats returns a reference vector's Σx and 1/√(n·Σx² − (Σx)²) (0 when
// degenerate) from int64 moments: the lane inputs the scan precomputes.
func refStats(x []int64) (sx, ix float64) {
	n := int64(len(x))
	var s, q int64
	for _, v := range x {
		s += v
		q += v * v
	}
	if v := n*q - s*s; v > 0 {
		ix = 1 / math.Sqrt(float64(v))
	}
	return float64(s), ix
}

// winStats returns a target window's Σy and Σy².
func winStats(y []int64) (sy, qy float64) {
	var s, q int64
	for _, v := range y {
		s += v
		q += v * v
	}
	return float64(s), float64(q)
}

// sameBits reports bit equality, treating any two NaNs as equal (the
// kernels promise NaN in, NaN out — not a particular payload).
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// laneVectors draws an n-element reference x and target y of values in
// [0, hi] for one kernel lane: kind 0 random values, 1 values at the
// extremes 0 and hi only, 2 a constant target, 3 a constant reference, 4
// the target equal to the reference (r at or just below 1), 5 the target
// mirrored (hi − x, r at or just above −1).
func laneVectors(rng *rand.Rand, n, hi, kind int) (x, y []int64) {
	x, y = make([]int64, n), make([]int64, n)
	draw := func() int64 { return int64(rng.Intn(hi + 1)) }
	if kind == 1 {
		draw = func() int64 { return int64(hi * rng.Intn(2)) }
	}
	cx, cy := draw(), draw()
	for u := range x {
		x[u], y[u] = draw(), draw()
		switch kind {
		case 2:
			y[u] = cy
		case 3:
			x[u] = cx
		case 4:
			y[u] = x[u]
		case 5:
			y[u] = int64(hi) - x[u]
		}
	}
	return x, y
}

// cellLane fills lane c of a channel block with cell vectors of the given
// kind (laneVectors over [0, 254]) and returns them. Past n the reference
// is zero up to padLen(n), as the scorer pads it, and the target holds
// random bytes, MissingCell included: the AVX2 kernel reads them, and the
// reference's zeros must cancel them.
func cellLane(rng *rand.Rand, b *chanBlock, c, n, kind int) (x, y []int64) {
	x, y = laneVectors(rng, n, trajectory.MissingCell-1, kind)
	xs, ys := make([]int16, padLen(n)), make([]uint8, padLen(n))
	for u := range ys {
		ys[u] = uint8(rng.Intn(256))
	}
	for u := range x {
		xs[u], ys[u] = int16(x[u]), uint8(y[u])
	}
	b.x[c], b.y[c] = xs, ys
	b.sx[c], b.ix[c] = refStats(x)
	b.sy[c], b.qy[c] = winStats(y)
	return x, y
}

// colLane fills lane c of a column block with column-sum vectors of the
// given kind over [0, 194·254] (the 194-channel maximum) and returns them.
func colLane(rng *rand.Rand, b *corrBlock, c, n, kind int) (x, y []int64) {
	x, y = laneVectors(rng, n, 194*(trajectory.MissingCell-1), kind)
	xf, yf := make([]float64, n), make([]float64, n)
	for u := range x {
		xf[u], yf[u] = float64(x[u]), float64(y[u])
	}
	b.x[c], b.y[c] = xf, yf
	b.sx[c], b.ix[c] = refStats(x)
	b.sy[c], b.qy[c] = winStats(y)
	return x, y
}

// checkChan runs both channel kernels on b and compares every lane with
// want.
func checkChan(t *testing.T, b *chanBlock, n int, want [4]float64) {
	t.Helper()
	g := *b
	corr4I16Generic(&g, n, float64(n))
	for c := range want {
		if !sameBits(g.r[c], want[c]) {
			t.Fatalf("n=%d lane %d: generic r = %v (%#x), int64 reference %v (%#x)", n, c, g.r[c], math.Float64bits(g.r[c]), want[c], math.Float64bits(want[c]))
		}
	}
	if !hasAVX2 {
		return
	}
	v := *b
	corr4I16AVX2(&v, n, float64(n))
	for c := range want {
		if !sameBits(v.r[c], g.r[c]) {
			t.Fatalf("n=%d lane %d: avx2 r = %v (%#x), generic %v (%#x)", n, c, v.r[c], math.Float64bits(v.r[c]), g.r[c], math.Float64bits(g.r[c]))
		}
	}
}

// checkCol runs both column kernels on b and compares every lane with
// want.
func checkCol(t *testing.T, b *corrBlock, n int, want [4]float64) {
	t.Helper()
	g := *b
	corr4Generic(&g, n, float64(n))
	for c := range want {
		if !sameBits(g.r[c], want[c]) {
			t.Fatalf("n=%d lane %d: column generic r = %v, int64 reference %v", n, c, g.r[c], want[c])
		}
	}
	if !hasAVX2 {
		return
	}
	v := *b
	corr4AVX2(&v, n, float64(n))
	for c := range want {
		if !sameBits(v.r[c], g.r[c]) {
			t.Fatalf("n=%d lane %d: column avx2 r = %v, generic %v", n, c, v.r[c], g.r[c])
		}
	}
}

// TestCorrKernelsMatchScalar compares the channel kernel's AVX2 assembly
// (where the CPU has it) with its Go twin, and the twin with the int64
// reference, bit for bit, for every window n from 1 to 97 — windows
// shorter than one 16-cell step, every n % 16, and lookahead bytes past n
// — with lanes mixing random cells, cells at 0 and 254 only, constant
// target and reference rows, and r at the ±1 clamp. The column kernel
// gets the same comparison on column sums up to 194·254.
func TestCorrKernelsMatchScalar(t *testing.T) {
	if !hasAVX2 {
		t.Log("CPU without AVX2: checking the Go twins only")
	}
	rng := rand.New(rand.NewSource(41))
	var clampHi, clampLo, degenerate int
	count := func(r float64) {
		switch r {
		case 1:
			clampHi++
		case -1:
			clampLo++
		case 0:
			degenerate++
		}
	}
	for n := 1; n <= 97; n++ {
		for trial := 0; trial < 40; trial++ {
			var cb chanBlock
			var kb corrBlock
			var wantC, wantK [4]float64
			for c := range cb.x {
				kind := 0
				if trial%2 == 1 {
					kind = rng.Intn(6)
				}
				wantC[c] = exactR(cellLane(rng, &cb, c, n, kind))
				wantK[c] = exactR(colLane(rng, &kb, c, n, kind))
				count(wantC[c])
			}
			checkChan(t, &cb, n, wantC)
			checkCol(t, &kb, n, wantK)
		}
	}
	if clampHi == 0 || clampLo == 0 || degenerate == 0 {
		t.Fatalf("cases not exercised: clamp +1 %d, clamp -1 %d, degenerate %d", clampHi, clampLo, degenerate)
	}
}

// TestChanKernelLongestWindow runs the channel kernel at the longest
// window Params.validate admits, on cells at 254 but for a few zeros: Σxy
// sits just below 2³¹, so an overflowing int32 lane or total would change
// r.
func TestChanKernelLongestWindow(t *testing.T) {
	n := cellRunMax
	x := make([]int64, n)
	for u := range x {
		x[u] = trajectory.MissingCell - 1
	}
	for u := 0; u < n; u += 997 {
		x[u] = 0
	}
	y := make([]int64, n)
	copy(y, x)
	y[1] = 0
	var b chanBlock
	xs, ys := make([]int16, padLen(n)), make([]uint8, padLen(n))
	for u := range x {
		xs[u], ys[u] = int16(x[u]), uint8(y[u])
	}
	for c := range b.x {
		b.x[c], b.y[c] = xs, ys
		b.sx[c], b.ix[c] = refStats(x)
		b.sy[c], b.qy[c] = winStats(y)
	}
	want := exactR(x, y)
	if want < 0.9 {
		t.Fatalf("fixture correlation %v, want near 1", want)
	}
	checkChan(t, &b, n, [4]float64{want, want, want, want})
}

// TestChanSumPaddedBlocks checks the scan's two kernel users against the
// int64 reference for channel and placement counts that leave the last
// block part-padded, at windows below, at and above one 16-cell step:
// chanSum's sum must be the reference r values added in channel order, and
// colTerms must give each placement the reference column correlation.
func TestChanSumPaddedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 9, 45} {
		for _, w := range []int{5, 16, 21} {
			const m = 60
			ref, tgt := cellRows(rng, k, w), cellRows(rng, k, m)
			dst := newMatrixIndex(tgt)
			dst.ensureWindowStats(w)
			s := newSegScorer(newMatrixIndex(ref), dst, 0, w, false)
			refC, tgtC := cellsOf(ref), cellsOf(tgt)
			refCol, tgtCol := colSumsOf(refC), colSumsOf(tgtC)
			for j := 0; j < s.positions(); j++ {
				var want float64
				for i := 0; i < k; i++ {
					want += exactR(refC[i], tgtC[i][j:j+w])
				}
				if got, _ := s.chanSum(j, 0, nil); !sameBits(got, want) {
					t.Fatalf("k=%d w=%d j=%d: chanSum %v, int64 reference %v", k, w, j, got, want)
				}
			}
			for lo := 0; lo < 4; lo++ {
				for cnt := 1; lo+cnt <= s.positions() && cnt <= 9; cnt++ {
					out := make([]float64, cnt)
					s.colTerms(lo, out)
					for q, got := range out {
						j := lo + q
						if want := exactR(refCol, tgtCol[j:j+w]); !sameBits(got, want) {
							t.Fatalf("k=%d w=%d colTerms(%d, %d)[%d] = %v, int64 reference %v", k, w, lo, cnt, q, got, want)
						}
					}
				}
			}
			s.release()
		}
	}
}

// TestDenseDetection pins the index's dense flag: a missing cell anywhere
// — the first cell of the first row, the last cell of the last row —
// makes the index sparse, and cells at the top of the range (254) are not
// mistaken for missing.
func TestDenseDetection(t *testing.T) {
	rows := randRows(rand.New(rand.NewSource(61)), 6, 40)
	if !newMatrixIndex(rows).dense {
		t.Fatal("whole-dB rows: index not dense")
	}
	rows[5][39] = math.NaN()
	if newMatrixIndex(rows).dense {
		t.Fatal("missing cell at the end of the last row: index still dense")
	}
	rows[5][39] = -60
	rows[0][0] = math.NaN()
	if newMatrixIndex(rows).dense {
		t.Fatal("missing cell at the start of the first row: index still dense")
	}
	rows[0][0] = -60
	rows[2][3], rows[2][17] = math.Inf(1), math.Inf(-1) // cells 254 and 0
	if !newMatrixIndex(rows).dense {
		t.Fatal("cells at the range ends: index not dense")
	}
}

// FuzzChanBlock compares both channel kernels with the int64 reference on
// fuzzer-chosen windows: lane 0 takes the fuzzer's cells (bytes reduced
// mod 255, so never MissingCell), the other lanes seeded random kinds.
func FuzzChanBlock(f *testing.F) {
	f.Add(uint8(85), int64(1), []byte{3, 200, 17, 254, 0, 90}, []byte{5, 5, 250, 1})
	f.Add(uint8(16), int64(2), []byte{254}, []byte{254, 0})
	f.Add(uint8(97), int64(3), []byte{}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, n8 uint8, seed int64, xb, yb []byte) {
		n := int(n8)%97 + 1
		rng := rand.New(rand.NewSource(seed))
		var b chanBlock
		var want [4]float64
		for c := range b.x {
			want[c] = exactR(cellLane(rng, &b, c, n, rng.Intn(6)))
		}
		x, y := make([]int64, n), make([]int64, n)
		for u := range x {
			if len(xb) > 0 {
				x[u] = int64(xb[u%len(xb)] % trajectory.MissingCell)
			}
			if len(yb) > 0 {
				y[u] = int64(yb[u%len(yb)] % trajectory.MissingCell)
			}
			b.x[0][u], b.y[0][u] = int16(x[u]), uint8(y[u])
		}
		b.sx[0], b.ix[0] = refStats(x)
		b.sy[0], b.qy[0] = winStats(y)
		want[0] = exactR(x, y)
		checkChan(t, &b, n, want)
	})
}

// BenchmarkCorrKernel times one four-lane block at the default 85 m
// window: the channel kernel (int16 cells) and the column kernel (float64
// column sums), each as its Go twin and (where the CPU has it) in AVX2.
func BenchmarkCorrKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	const n = 85
	var cb chanBlock
	var kb corrBlock
	for c := range cb.x {
		cellLane(rng, &cb, c, n, 0)
		colLane(rng, &kb, c, n, 0)
	}
	b.Run("chan-generic", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			corr4I16Generic(&cb, n, n)
		}
	})
	b.Run("chan-avx2", func(b *testing.B) {
		if !hasAVX2 {
			b.Skip("CPU without AVX2")
		}
		for it := 0; it < b.N; it++ {
			corr4I16AVX2(&cb, n, n)
		}
	})
	b.Run("col-generic", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			corr4Generic(&kb, n, n)
		}
	})
	b.Run("col-avx2", func(b *testing.B) {
		if !hasAVX2 {
			b.Skip("CPU without AVX2")
		}
		for it := 0; it < b.N; it++ {
			corr4AVX2(&kb, n, n)
		}
	})
}

// TestIndexSumsMatchNaive pins the index tables and the reference segment
// set-up to naive loops over the cells, for row counts from 1 to 45 and
// for dense and sparse matrices: both prefix tables (a missing cell counts
// 0), the missing-count prefixes, the column sums and their prefix tables,
// and the segment's int16 cells, zero pad, and its kernel lanes' Σx and
// 1/√(w·Σx² − (Σx)²).
func TestIndexSumsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 45, colLaneRows, colLaneRows + 1} {
		for _, sparse := range []bool{false, true} {
			const m, lo, w = 77, 9, 31
			rows := cellRows(rng, k, m)
			for i := range rows {
				rows[i][3] = gsm.NoiseFloorDBm + cellMax // a column at the lanes' limit
			}
			if sparse {
				for i := range rows {
					rows[i][lo+w+i%(m-lo-w)] = math.NaN() // past the segment
				}
			}
			idx := newMatrixIndex(rows)
			if idx.dense == sparse {
				t.Fatalf("k=%d sparse=%v: dense flag %v", k, sparse, idx.dense)
			}
			cells := cellsOf(rows)
			var colPre, colPreSq int64
			for j := 0; j < m; j++ {
				var col int64
				for i := range cells {
					if cells[i][j] != trajectory.MissingCell {
						col += cells[i][j]
					}
				}
				if idx.colSum[j] != float64(col) {
					t.Fatalf("k=%d colSum[%d] = %v, naive %d", k, j, idx.colSum[j], col)
				}
				colPre += col
				colPreSq += col * col
				if idx.colPre[j+1] != float64(colPre) || idx.colPreSq[j+1] != float64(colPreSq) {
					t.Fatalf("k=%d column prefixes at %d = (%v, %v), naive (%d, %d)", k, j+1, idx.colPre[j+1], idx.colPreSq[j+1], colPre, colPreSq)
				}
			}
			for i, row := range cells {
				var s, q, miss int64
				for j, v := range row {
					if v == trajectory.MissingCell {
						miss++
						v = 0
					}
					s += v
					q += v * v
					if p := idx.pre[i*(m+1)+j+1]; int64(p.s) != s || int64(p.q) != q {
						t.Fatalf("k=%d row %d prefix at %d = %+v, naive (%d, %d)", k, i, j+1, p, s, q)
					}
					if sparse && int64(idx.missPre[i][j+1]) != miss {
						t.Fatalf("k=%d row %d missing prefix at %d = %d, naive %d", k, i, j+1, idx.missPre[i][j+1], miss)
					}
				}
				if (idx.pre[i*(m+1)] != rowPre{}) {
					t.Fatalf("k=%d row %d prefix sentinel %+v", k, i, idx.pre[i*(m+1)])
				}
			}
			// The fast path needs a dense target; the source's segment is
			// dense either way.
			s := newSegScorer(idx, newMatrixIndex(cellRows(rng, k, m)), lo, w, false)
			if !s.dense {
				t.Fatalf("k=%d sparse=%v: segment not dense", k, sparse)
			}
			pw := padLen(w)
			for i, row := range cells {
				seg := row[lo : lo+w]
				for u := 0; u < pw; u++ {
					want := int16(0)
					if u < w {
						want = int16(seg[u])
					}
					if got := s.scratch.xs[i*pw+u]; got != want {
						t.Fatalf("k=%d row %d reference cell %d = %d, want %d", k, i, u, got, want)
					}
				}
				sx, ix := refStats(seg)
				b, c := &s.scratch.blocks[i/abandonEvery], i%abandonEvery
				if !sameBits(b.sx[c], sx) || !sameBits(b.ix[c], ix) || &b.x[c][0] != &s.scratch.xs[i*pw] {
					t.Fatalf("k=%d row %d reference lane (%v, %v), naive (%v, %v)", k, i, b.sx[c], b.ix[c], sx, ix)
				}
			}
			s.release()
		}
	}
}

// BenchmarkMatrixIndex times the per-context preprocessing of one side of
// a default search: the index (dense check, both prefix tables, column
// sums and their prefix tables) over the 45 selected channels of a 1 km
// context.
func BenchmarkMatrixIndex(b *testing.B) {
	const k, m = 45, 1000
	cells := newMatrixIndex(randRows(rand.New(rand.NewSource(59)), k, m)).cells
	ar := new(arena)
	b.ReportAllocs()
	for it := 0; it < b.N; it++ {
		newCellIndex(cells, k, m, ar)
		ar.reset()
	}
}
