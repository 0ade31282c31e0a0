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

// chanScene lays out reference segments xs[i] and target windows ys[i]
// (k channels of w dense cells each) as the rows of a source and a target
// index, and returns the scorer of the segment at lo against the target,
// whose placement j is the windows. Around the segment the source rows
// hold random bytes, MissingCell included, so the source is sparse but the
// segment dense, and the reference's last step reads real cells past w
// that chanTable.tail must cancel. The target rows hold random present
// cells, after of them past the window, then their zero pad.
func chanScene(rng *rand.Rand, xs, ys [][]int64, lo, j, after int) *segScorer {
	k, w := len(xs), len(xs[0])
	ms, mt := lo+w+cellPad, j+w+after
	src, tgt := grabCells(nil, k, ms), grabCells(nil, k, mt)
	for i := range xs {
		sr, tr := src[i*(ms+cellPad):][:ms], tgt[i*(mt+cellPad):][:mt]
		for u := range sr {
			sr[u] = uint8(rng.Intn(256))
		}
		for u := range tr {
			tr[u] = uint8(rng.Intn(trajectory.MissingCell))
		}
		for u := range xs[i] {
			sr[lo+u], tr[j+u] = uint8(xs[i][u]), uint8(ys[i][u])
		}
	}
	return newSegScorer(newCellIndex(src, k, ms, false, nil), newCellIndex(tgt, k, mt, true, nil), lo, w, false)
}

// chanLanesOf draws k channels of w cells: lane vectors of the given kinds
// (laneVectors over [0, 254], kinds[i % len(kinds)]).
func chanLanesOf(rng *rand.Rand, k, w int, kinds []int) (xs, ys [][]int64) {
	xs, ys = make([][]int64, k), make([][]int64, k)
	for i := range xs {
		xs[i], ys[i] = laneVectors(rng, w, cellMax, kinds[i%len(kinds)])
	}
	return xs, ys
}

// chanReference is the channel kernel written out with int64 moments:
// exactR per channel added in channel order, and after every fourth
// channel but the last the padded bound (sum + (k−i))/k + cr +
// abandonSlack tested with cut.dead (no test for a nil cut). It also
// returns the bounds it tested.
func chanReference(xs, ys [][]int64, cr float64, cut *scanCut) (sum float64, ok bool, bounds []float64) {
	k := len(xs)
	for i := range xs {
		sum += exactR(xs[i], ys[i])
		if n := i + 1; n%abandonEvery == 0 && n < k {
			bound := (sum+float64(k-n))/float64(k) + cr + abandonSlack
			bounds = append(bounds, bound)
			if cut != nil && cut.dead(bound) {
				return sum, false, bounds
			}
		}
	}
	return sum, true, bounds
}

// checkChan runs both channel kernels on the scorer's placement j under
// the cut's fold (none for a nil cut) and compares their sum bits and
// verdict with the reference's.
func checkChan(t *testing.T, s *segScorer, j int, cr float64, cut *scanCut, want float64, wantOK bool) {
	t.Helper()
	le, lt := math.NaN(), math.NaN()
	if cut != nil {
		le, lt = cut.fold()
	}
	got, ok := chanKernelGeneric(&s.chans, j, cr, le, lt)
	if !sameBits(got, want) || ok != wantOK {
		t.Fatalf("k=%d w=%d j=%d cr=%v cut=%+v: generic (%v, %v), int64 reference (%v, %v)", s.src.k, s.w, j, cr, cut, got, ok, want, wantOK)
	}
	if !hasAVX2 {
		return
	}
	v, vok := chanKernelAVX2(&s.chans, j, cr, le, lt)
	if !sameBits(v, got) || vok != ok {
		t.Fatalf("k=%d w=%d j=%d cr=%v cut=%+v: avx2 (%v %#x, %v), generic (%v %#x, %v)", s.src.k, s.w, j, cr, cut, v, math.Float64bits(v), vok, got, math.Float64bits(got), ok)
	}
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
// shorter than one 16-cell step, every n % 16, and real cells past n on
// both rows — over 1 to 8 channels (every way of padding the last block),
// with lanes mixing random cells, cells at 0 and 254 only, constant target
// and reference rows, and r at the ±1 clamp. The column kernel gets the
// same comparison on column sums up to 194·254.
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
			k := trial%8 + 1
			kinds := []int{0}
			if trial%2 == 1 {
				kinds = []int{rng.Intn(6), rng.Intn(6), rng.Intn(6)}
			}
			xs, ys := chanLanesOf(rng, k, n, kinds)
			for i := range xs {
				count(exactR(xs[i], ys[i]))
			}
			j := rng.Intn(4)
			s := chanScene(rng, xs, ys, rng.Intn(4), j, rng.Intn(20))
			want, _, _ := chanReference(xs, ys, 0, nil)
			checkChan(t, s, j, 0, nil, want, true)
			s.release()

			var kb corrBlock
			var wantK [4]float64
			for c := range kb.x {
				wantK[c] = exactR(colLane(rng, &kb, c, n, kinds[c%len(kinds)]))
			}
			checkCol(t, &kb, n, wantK)
		}
	}
	if clampHi == 0 || clampLo == 0 || degenerate == 0 {
		t.Fatalf("cases not exercised: clamp +1 %d, clamp -1 %d, degenerate %d", clampHi, clampLo, degenerate)
	}
}

// TestChanKernelAbandon checks the kernels' in-kernel abandon against the
// int64 reference's cut.dead at every fourth channel, with thresholds
// placed exactly on the reference's padded bounds, one ulp either side,
// and on the bounds without abandonSlack (which must not abandon), for
// incumbents, floors and seeds under both tie rules.
func TestChanKernelAbandon(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var abandoned, kept int
	for trial := 0; trial < 300; trial++ {
		k, w := 5+rng.Intn(45), 1+rng.Intn(97)
		xs, ys := chanLanesOf(rng, k, w, []int{0, 0, 4, 5})
		j := rng.Intn(4)
		s := chanScene(rng, xs, ys, rng.Intn(4), j, rng.Intn(20))
		cr := 2*rng.Float64() - 1
		_, _, bounds := chanReference(xs, ys, cr, nil)
		b := bounds[rng.Intn(len(bounds))]
		for _, th := range []float64{b, math.Nextafter(b, 2), math.Nextafter(b, -2), b - abandonSlack} {
			for _, cut := range []scanCut{
				{best: th, floor: math.Inf(-1), seed: math.Inf(-1)},
				{best: math.Inf(-1), floor: th, seed: math.Inf(-1), tiesWin: true},
				{best: math.Inf(-1), floor: math.Inf(-1), seed: th},
				{best: math.Inf(-1), floor: math.Inf(-1), seed: th, tiesWin: true},
				{best: th - 0.5, floor: th - 0.25, seed: th, tiesWin: rng.Intn(2) == 1},
			} {
				want, ok, _ := chanReference(xs, ys, cr, &cut)
				checkChan(t, s, j, cr, &cut, want, ok)
				if ok {
					kept++
				} else {
					abandoned++
				}
			}
		}
		s.release()
	}
	if abandoned == 0 || kept == 0 {
		t.Fatalf("verdicts not exercised: %d abandoned, %d kept", abandoned, kept)
	}
}

// TestScanCutFold checks that the channel kernel's two thresholds
// (scanCut.fold: dead iff bound ≤ le or bound < lt) give scanCut.dead's
// verdict on bounds at, one ulp either side of, and between every
// threshold, and at ±Inf and NaN: under both tie rules, with the seed
// -Inf, NaN, equal to the bound, above and below the incumbent and the
// floor, with the floor above and below the incumbent, and with a NaN
// floor.
func TestScanCutFold(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cuts := []scanCut{
		{best: -inf, floor: -inf, seed: -inf},
		{best: 1.1, floor: 1.2, seed: -inf},  // floor above best
		{best: 1.3, floor: 1.2, seed: -inf},  // best above floor
		{best: 1.3, floor: 1.2, seed: nan},   // a NaN seed is ignored
		{best: 1.3, floor: 1.2, seed: 1.25},  // seed between floor and best
		{best: 1.3, floor: 1.2, seed: 1.4},   // seed above both
		{best: 1.1, floor: 1.2, seed: 1.15},  // seed between best and floor
		{best: 1.3, floor: 1.2, seed: 1.3},   // seed equal to best
		{best: 1.3, floor: 1.2, seed: 1.2},   // seed equal to floor
		{best: -inf, floor: 1.2, seed: 2},    // the clamped maximum score
		{best: -inf, floor: -inf, seed: 0.5}, // an unfloored seeded scan
		{best: 1.1, floor: nan, seed: 1.4},   // a NaN floor never fires
		{best: 1.1, floor: nan, seed: nan},
	}
	for _, c := range cuts {
		for _, tiesWin := range []bool{false, true} {
			c.tiesWin = tiesWin
			bounds := []float64{-inf, inf, nan, 0, 1.0, 1.25, 1.35}
			for _, x := range []float64{c.best, c.floor, c.seed} {
				bounds = append(bounds, x, math.Nextafter(x, inf), math.Nextafter(x, -inf))
			}
			le, lt := c.fold()
			for _, b := range bounds {
				if got, want := b <= le || b < lt, c.dead(b); got != want {
					t.Errorf("cut %+v bound %v: fold (le %v, lt %v) says dead=%v, scanCut.dead %v", c, b, le, lt, got, want)
				}
			}
		}
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
		x[u] = cellMax
	}
	for u := 0; u < n; u += 997 {
		x[u] = 0
	}
	y := make([]int64, n)
	copy(y, x)
	y[1] = 0
	r := exactR(x, y)
	if r < 0.9 {
		t.Fatalf("fixture correlation %v, want near 1", r)
	}
	xs, ys := [][]int64{x, x, x, x, x}, [][]int64{y, y, y, y, y}
	s := chanScene(rand.New(rand.NewSource(44)), xs, ys, 0, 0, 0)
	want, _, _ := chanReference(xs, ys, 0, nil)
	checkChan(t, s, 0, 0, nil, want, true)
	s.release()
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
			s := newSegScorer(newMatrixIndex(ref), newMatrixIndex(tgt), 0, w, false)
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

// FuzzChanKernel compares both channel kernels with the int64 reference
// (chanReference: exactR in channel order, cut.dead at every fourth
// channel) on fuzzer-chosen scenes: channel 0 takes the fuzzer's cells
// (bytes reduced mod 255, so never MissingCell), the other channels seeded
// random kinds; the fuzzer also picks k, w ≤ 97, j, cr and the cut, whose
// thresholds can be -Inf or NaN or sit exactly on one of the reference's
// bounds. The kernels must return the reference's sum bits and verdict,
// abandoned placements included.
func FuzzChanKernel(f *testing.F) {
	f.Add(uint8(84), uint8(44), uint8(1), int64(1), []byte{3, 200, 17, 254, 0, 90}, int8(30), int16(9000), int16(8000), int16(-3), uint8(0))
	f.Add(uint8(15), uint8(8), uint8(0), int64(2), []byte{254}, int8(-127), int16(0), int16(0), int16(0), uint8(0x35))
	f.Add(uint8(96), uint8(12), uint8(3), int64(3), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, int8(127), int16(-9000), int16(100), int16(12000), uint8(0x1b))
	f.Fuzz(func(t *testing.T, w8, k8, j8 uint8, seed int64, cells []byte, cr8 int8, best, floor, sd int16, mode uint8) {
		w, k, j := int(w8)%97+1, int(k8)%48+1, int(j8)%8
		rng := rand.New(rand.NewSource(seed))
		xs, ys := chanLanesOf(rng, k, w, []int{rng.Intn(6), rng.Intn(6), rng.Intn(6)})
		if len(cells) > 0 {
			for u := range w {
				xs[0][u] = int64(cells[u%len(cells)] % trajectory.MissingCell)
				ys[0][u] = int64(cells[(u+w)%len(cells)] % trajectory.MissingCell)
			}
		}
		s := chanScene(rng, xs, ys, rng.Intn(4), j, rng.Intn(20))
		defer s.release()
		cr := float64(cr8) / 127
		th := func(v int16) float64 { return float64(v) / 8192 }
		cut := scanCut{best: th(best), floor: th(floor), seed: th(sd), tiesWin: mode&1 == 1}
		if mode&2 != 0 {
			cut.best = math.Inf(-1)
		}
		switch mode >> 2 & 3 {
		case 1:
			cut.seed = math.Inf(-1)
		case 2:
			cut.seed = math.NaN()
		case 3:
			cut.floor = math.Inf(-1)
		}
		if _, _, bounds := chanReference(xs, ys, cr, nil); len(bounds) > 0 {
			b := bounds[int(mode>>6)%len(bounds)]
			switch mode >> 4 & 3 {
			case 1:
				cut.best = b
			case 2:
				cut.floor = b
			case 3:
				cut.seed = b
			}
		}
		want, ok, _ := chanReference(xs, ys, cr, &cut)
		checkChan(t, s, j, cr, &cut, want, ok)
	})
}

// BenchmarkCorrKernel times the channel kernel on one whole placement at
// the default 45 channels and 85 m window (every channel scored: no cut),
// as its Go twin and (where the CPU has it) in AVX2, and the column kernel
// on one four-lane block of float64 column sums at the same window.
func BenchmarkCorrKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	const k, n, places = 45, 85, 64
	xs, ys := chanLanesOf(rng, k, n, []int{0})
	s := chanScene(rng, xs, ys, 0, 0, places)
	defer s.release()
	nan := math.NaN()
	var kb corrBlock
	for c := range kb.x {
		colLane(rng, &kb, c, n, 0)
	}
	b.Run("chan-generic", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			chanKernelGeneric(&s.chans, it%places, 0, nan, nan)
		}
	})
	b.Run("chan-avx2", func(b *testing.B) {
		if !hasAVX2 {
			b.Skip("CPU without AVX2")
		}
		for it := 0; it < b.N; it++ {
			chanKernelAVX2(&s.chans, it%places, 0, nan, nan)
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
// and the segment's lane table: every lane's row offsets (spare lanes
// repeating the last channel), its Σx and 1/√(w·Σx² − (Σx)²), and the
// reference's tail mask.
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
			// The last step covers cells [16·⌊(w−1)/16⌋, +16) of the segment.
			for u, v := range s.chans.tail {
				want := uint16(0)
				if (w-1)/16*16+u < w {
					want = 0xFFFF
				}
				if v != want {
					t.Fatalf("k=%d w=%d tail mask %v", k, w, s.chans.tail)
				}
			}
			if len(s.chans.lanes) != (k+3)/4 || s.chans.k != k || s.chans.w != w {
				t.Fatalf("k=%d table (k=%d, w=%d, %d blocks)", k, s.chans.k, s.chans.w, len(s.chans.lanes))
			}
			for l := 0; l < 4*len(s.chans.lanes); l++ {
				i := min(l, k-1) // spare lanes repeat the last channel
				seg := cells[i][lo : lo+w]
				sx, ix := refStats(seg)
				ln, c := &s.chans.lanes[l/4], l%4
				if !sameBits(ln.sx[c], sx) || !sameBits(ln.ix[c], ix) {
					t.Fatalf("k=%d lane %d reference (%v, %v), naive (%v, %v)", k, l, ln.sx[c], ln.ix[c], sx, ix)
				}
				if ln.ref[c] != i*idx.stride+lo || ln.tgt[c] != i*s.tgt.stride || ln.pre[c] != i*(s.tgt.m+1) {
					t.Fatalf("k=%d lane %d offsets (%d, %d, %d), want channel %d's", k, l, ln.ref[c], ln.tgt[c], ln.pre[c], i)
				}
				for u, v := range seg {
					if int64(s.chans.ref[ln.ref[c]+u]) != v {
						t.Fatalf("k=%d lane %d reference cell %d = %d, want %d", k, l, u, s.chans.ref[ln.ref[c]+u], v)
					}
				}
			}
			s.release()
		}
	}
}

// BenchmarkNewSearcher times one pair's set-up on 1100 m snapshots,
// clipped to the default 1000 m context: ranking the resolver's channels,
// then both sides' indexes — over the scan's 365 m reach (reach), or over
// the whole clipped context (full).
func BenchmarkNewSearcher(b *testing.B) {
	a, peer := plantedPair(73, 1100, 25, 1.0)
	a, peer = a.Snapshot(), peer.Snapshot()
	p := DefaultParams()
	for _, c := range []struct {
		name  string
		reach int
	}{{"reach", p.scanReach()}, {"full", p.MaxContextMeters}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for it := 0; it < b.N; it++ {
				newSearcher(a, peer, p, c.reach).Release()
			}
		})
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
		newCellIndex(cells, k, m, true, ar)
		ar.reset()
	}
}
