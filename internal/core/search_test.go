package core

import (
	"math"
	"math/rand"
	"testing"

	"rups/internal/gsm"
	"rups/internal/stats"
	"rups/internal/trajectory"
)

// randRows draws k rows of m whole-dB readings in [−90, −50] dBm: values
// a power cell holds exactly, so the index scores the very matrix that
// float references (stats.TrajCorr, stats.Pearson) are handed.
func randRows(rng *rand.Rand, k, m int) [][]float64 {
	a := make([][]float64, k)
	for i := range a {
		a[i] = make([]float64, m)
		for j := range a[i] {
			a[i][j] = math.Round(-90 + 40*rng.Float64())
		}
	}
	return a
}

// cellRows draws k rows of m whole-dB readings spanning every present
// cell value (0–254 above the noise floor): mostly uniform rows, some
// holding only the two extreme cells, and some constant (degenerate).
func cellRows(rng *rand.Rand, k, m int) [][]float64 {
	floor := gsm.NoiseFloorDBm
	a := make([][]float64, k)
	for i := range a {
		a[i] = make([]float64, m)
		kind, c := rng.Intn(8), float64(rng.Intn(255))
		for j := range a[i] {
			switch kind {
			case 0:
				a[i][j] = floor + c
			case 1:
				a[i][j] = floor + float64(254*rng.Intn(2))
			default:
				a[i][j] = floor + float64(rng.Intn(255))
			}
		}
	}
	return a
}

// cellsOf returns the power cells of dBm rows (trajectory.CellByte) as
// int64, MissingCell included.
func cellsOf(rows [][]float64) [][]int64 {
	out := make([][]int64, len(rows))
	for i, row := range rows {
		out[i] = make([]int64, len(row))
		for j, v := range row {
			out[i][j] = int64(trajectory.CellByte(v))
		}
	}
	return out
}

// colSumsOf returns the column sums of dense cell rows.
func colSumsOf(cells [][]int64) []int64 {
	out := make([]int64, len(cells[0]))
	for _, row := range cells {
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

// scorerOver builds a segment scorer whose reference is the whole ref
// matrix — the shape the pre-refactor slidingScorer tests used.
func scorerOver(ref, tgt [][]float64) *segScorer {
	return newSegScorer(newMatrixIndex(ref), newMatrixIndex(tgt), 0, len(ref[0]), false)
}

// TestScorerMatchesTrajCorr verifies the incremental fast path against the
// reference implementation of Eq. 2 at every window position.
func TestScorerMatchesTrajCorr(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := randRows(rng, 7, 20)
	tgt := randRows(rng, 7, 60)
	s := scorerOver(ref, tgt)
	if !s.dense {
		t.Fatal("expected dense fast path")
	}
	for j := 0; j < s.positions(); j++ {
		want := stats.TrajCorr(ref, sliceRows(tgt, j, j+20))
		got := s.scoreAt(j)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("scoreAt(%d) = %v, want %v", j, got, want)
		}
	}
}

// TestScorerSlowPathMatchesTrajCorr does the same with missing entries
// sprinkled in, exercising the sparse scoring over the dBm rows.
func TestScorerSlowPathMatchesTrajCorr(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ref := randRows(rng, 5, 15)
	tgt := randRows(rng, 5, 40)
	ref[2][3] = stats.Missing
	tgt[4][11] = stats.Missing
	tgt[0][0] = stats.Missing
	s := scorerOver(ref, tgt)
	if s.dense {
		t.Fatal("expected slow path with missing entries")
	}
	for j := 0; j < s.positions(); j++ {
		want := stats.TrajCorr(ref, sliceRows(tgt, j, j+15))
		got := s.scoreAt(j)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("scoreAt(%d) = %v, want %v", j, got, want)
		}
	}
}

// TestScorerSegmentDenseFastPath: a ref segment that is dense inside a
// source matrix with missing entries elsewhere still takes the fast path
// against a dense target, and matches the reference.
func TestScorerSegmentDenseFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	src := randRows(rng, 6, 50)
	tgt := randRows(rng, 6, 80)
	src[3][2] = stats.Missing // outside the [20, 35) segment
	idxS, idxT := newMatrixIndex(src), newMatrixIndex(tgt)
	s := newSegScorer(idxS, idxT, 20, 15, false)
	defer s.release()
	if !s.dense {
		t.Fatal("dense segment of a sparse matrix should use the fast path")
	}
	ref := sliceRows(src, 20, 35)
	for j := 0; j < s.positions(); j++ {
		want := stats.TrajCorr(ref, sliceRows(tgt, j, j+15))
		if got := s.scoreAt(j); math.Abs(got-want) > 1e-9 {
			t.Fatalf("scoreAt(%d) = %v, want %v", j, got, want)
		}
	}
	// And a segment covering the hole falls back.
	s2 := newSegScorer(idxS, idxT, 0, 15, false)
	defer s2.release()
	if s2.dense {
		t.Fatal("segment containing a missing entry must not be dense")
	}
}

// TestScorerFindsPlantedAlignment embeds the reference segment inside a
// noise trajectory and checks the scan locates it.
func TestScorerFindsPlantedAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const k, w, m, at = 10, 25, 120, 61
	tgt := randRows(rng, k, m)
	ref := make([][]float64, k)
	for i := range ref {
		ref[i] = make([]float64, w)
		for u := 0; u < w; u++ {
			// The planted copy plus small measurement noise.
			ref[i][u] = tgt[i][at+u] + 0.5*rng.NormFloat64()
		}
	}
	s := scorerOver(ref, tgt)
	pos, score := s.scan(0, s.positions()-1, noSeed, true)
	if pos != at {
		t.Errorf("scan at %d, want %d (score %v)", pos, at, score)
	}
	if score < 1.5 {
		t.Errorf("planted alignment score = %v, want near 2", score)
	}
}

// TestDenseMomentsExact pins the dense path to exact integer moments:
// across random dense matrices (random and extreme cells, constant rows,
// channel counts that pad the last kernel block, windows on and off the
// 16-cell step) every placement's scoreAt must equal, bit for bit, Eq. 2
// computed from int64 moments — each channel's exact r added in channel
// order and divided by k, plus the exact r of the column sums — with and
// without the column term, and from a dense segment of a sparse source.
func TestDenseMomentsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 24; trial++ {
		k := 1 + rng.Intn(13)
		w := 2 + rng.Intn(40)
		m := w + 1 + rng.Intn(120)
		lo := rng.Intn(8)
		src, tgt := cellRows(rng, k, lo+w+5), cellRows(rng, k, m)
		if trial%3 == 2 {
			src[rng.Intn(k)][lo+w+rng.Intn(5)] = stats.Missing // past the segment
		}
		refC, tgtC := cellsOf(src), cellsOf(tgt)
		for i := range refC {
			refC[i] = refC[i][lo : lo+w]
		}
		refCol, tgtCol := colSumsOf(refC), colSumsOf(tgtC)
		idxS, idxT := newMatrixIndex(src), newMatrixIndex(tgt)
		for _, noCol := range []bool{false, true} {
			s := newSegScorer(idxS, idxT, lo, w, noCol)
			if !s.dense {
				t.Fatalf("trial %d: expected the dense path", trial)
			}
			for j := 0; j < s.positions(); j++ {
				var chanSum float64
				for i := 0; i < k; i++ {
					chanSum += exactR(refC[i], tgtC[i][j:j+w])
				}
				want := chanSum / float64(k)
				if !noCol {
					want += exactR(refCol, tgtCol[j:j+w])
				}
				if got := s.scoreAt(j); !sameBits(got, want) {
					t.Fatalf("trial %d (k %d, w %d, noCol %v): scoreAt(%d) = %v, int64 moments %v",
						trial, k, w, noCol, j, got, want)
				}
			}
			s.release()
		}
	}
}

// TestPearsonFromSumsDegenerate: a constant target window or a degenerate
// reference (ix = 0) scores 0, matching stats.Pearson.
func TestPearsonFromSumsDegenerate(t *testing.T) {
	// Five cells of 2: w·Σy² − (Σy)² = 5·20 − 10² = 0.
	if got := pearsonFromSums(5, 14, 10, 20, 7, 0.1); got != 0 {
		t.Errorf("constant target = %v, want 0", got)
	}
	if got := pearsonFromSums(5, 14, 9, 21, 7, 0); got != 0 {
		t.Errorf("degenerate reference = %v, want 0", got)
	}
	if got := invNorm(5, 10, 20); got != 0 {
		t.Errorf("invNorm of a constant vector = %v, want 0", got)
	}
}

func TestDotMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 85, 100} {
		a := make([]float64, n)
		b := make([]float64, n)
		var want float64
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
			want += a[i] * b[i]
		}
		if got := dot(a, b); math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Errorf("dot(len %d) = %v, want %v", n, got, want)
		}
	}
}

// sliceRows returns each row restricted to [lo, hi).
func sliceRows(rows [][]float64, lo, hi int) [][]float64 {
	out := make([][]float64, len(rows))
	for i := range rows {
		out[i] = rows[i][lo:hi]
	}
	return out
}

func TestSYNPointRelativeDistance(t *testing.T) {
	// Build two trivial trajectories of lengths 100 and 80.
	a := awareOfLen(100)
	b := awareOfLen(80)
	// Common location: A's metre 90, B's metre 50. A has travelled 9 m
	// since, B has travelled 29 m since → B is 20 m ahead.
	s := SYNPoint{IdxA: 90, IdxB: 50}
	if got := s.RelativeDistance(a, b); got != 20 {
		t.Errorf("RelativeDistance = %v, want 20", got)
	}
	// Swap roles: negative when the peer is behind.
	s = SYNPoint{IdxA: 99, IdxB: 50}
	if got := s.RelativeDistance(a, b); got != 29 {
		t.Errorf("RelativeDistance = %v, want 29", got)
	}
}
