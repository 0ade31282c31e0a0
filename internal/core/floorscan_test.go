package core

import (
	"math"
	"math/rand"
	"testing"

	"rups/internal/stats"
)

// sweepFrom scores every placement of [lo, hi] with scoreAt, in the bounded
// scan's visiting order (the midpoint, then outward), keeping the first
// strict maximum. It is the reference the bounded scan must reproduce: no
// bound, no floor, no abandoning.
func sweepFrom(s *segScorer, lo, hi int) (pos int, score float64) {
	pivot := lo + (hi-lo)/2
	pos, score = -1, math.Inf(-1)
	take := func(j int) {
		if sc := s.scoreAt(j); sc > score {
			pos, score = j, sc
		}
	}
	take(pivot)
	for d := 1; pivot+d <= hi || pivot-d >= lo; d++ {
		if pivot+d <= hi {
			take(pivot + d)
		}
		if pivot-d >= lo {
			take(pivot - d)
		}
	}
	return pos, score
}

// periodicRows builds k whole-dB rows of length m repeating with the given
// period. Every moment of the scan is an exact integer, so placements one
// period apart score the same bits: ties with the incumbent down to the
// ulp.
func periodicRows(rng *rand.Rand, k, m, period int) [][]float64 {
	rows := make([][]float64, k)
	for i := range rows {
		rows[i] = make([]float64, m)
		for j := 0; j < period; j++ {
			rows[i][j] = float64(-90 + rng.Intn(41))
		}
		for j := period; j < m; j++ {
			rows[i][j] = rows[i][j-period]
		}
	}
	return rows
}

// floorFixture is one direction-scan fixture: a reference segment and a
// target whose maximum is random, planted exactly, hidden behind a noisy
// decoy, or tied across periods.
func floorFixture(rng *rand.Rand, trial int) (ref, tgt [][]float64) {
	const k, m, w = 12, 140, 16
	switch trial % 4 {
	case 0: // random: the maximum is usually far below any threshold
		return randRows(rng, k, w), randRows(rng, k, m)
	case 1: // exact copy: the maximum is (nearly) 2
		ref, tgt = randRows(rng, k, w), randRows(rng, k, m)
		for i := 0; i < k; i++ {
			copy(tgt[i][90:90+w], ref[i])
		}
	case 2: // noisy true match far from a noisier decoy near the midpoint
		ref, tgt = randRows(rng, k, w), randRows(rng, k, m)
		for i := 0; i < k; i++ {
			for u := 0; u < w; u++ {
				tgt[i][15+u] = ref[i][u] + 0.4*rng.NormFloat64()
				tgt[i][62+u] = ref[i][u] + 1.2*rng.NormFloat64()
			}
		}
	default: // periodic target: every score recurs bit-exactly
		tgt = periodicRows(rng, 8, 128, 37)
		ref = make([][]float64, 8)
		for i := range ref {
			ref[i] = make([]float64, w)
			for u := range ref[i] {
				ref[i][u] = tgt[i][20+u] + 0.6*rng.NormFloat64()
			}
		}
	}
	return ref, tgt
}

// noSeed is the seed of an unseeded direction scan.
var noSeed = math.Inf(-1)

// scanVariant is one kind of scorer the bounded scan serves: the dense
// kernel path, the NoColumnTerm ablation, and sparse segments (missing
// cells in the reference segment and in the target), with and without the
// column term.
type scanVariant struct {
	name          string
	sparse, noCol bool
}

var scanVariants = []scanVariant{
	{"dense", false, false},
	{"no-column-term", false, true},
	{"sparse", true, false},
	{"sparse/no-column-term", true, true},
}

// variantScorer builds v's scorer of the whole ref against tgt. A sparse
// variant scores copies of both with random cells missing, drawn from miss
// so the fixtures' own draws stay the same for every variant.
func variantScorer(t *testing.T, miss *rand.Rand, v scanVariant, ref, tgt [][]float64) *segScorer {
	t.Helper()
	if v.sparse {
		ref, tgt = withMissing(miss, ref), withMissing(miss, tgt)
	}
	s := newSegScorer(newMatrixIndex(ref), newMatrixIndex(tgt), 0, len(ref[0]), v.noCol)
	if s.dense == v.sparse {
		t.Fatalf("%s: scorer density is not what the variant needs", v.name)
	}
	return s
}

// withMissing returns a copy of rows with about one cell in 40 (at least
// one) set to stats.Missing.
func withMissing(rng *rand.Rand, rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, row := range rows {
		out[i] = append([]float64(nil), row...)
	}
	m := len(rows[0])
	for n := 1 + len(rows)*m/40; n > 0; n-- {
		out[rng.Intn(len(rows))][rng.Intn(m)] = stats.Missing
	}
	return out
}

// TestFloorScanContract pins the bounded direction scan to a full scoreAt
// sweep, without trusting core.Resolve, for every scanVariant: whenever
// the sweep's maximum reaches the floor (and, when seeded, wins combine
// against the seed under the tie rule) the scan returns the same (pos,
// score) bit for bit; otherwise it returns a score that never exceeds the
// maximum and either misses the floor or loses to the seed. The floor and
// seed ladders hit the maximum exactly and one ulp either side of it.
func TestFloorScanContract(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	miss := rand.New(rand.NewSource(18))
	var ties int
	exact, below, abandoned := make([]int, len(scanVariants)), make([]int, len(scanVariants)), make([]int, len(scanVariants))
	for trial := 0; trial < 48; trial++ {
		ref, tgt := floorFixture(rng, trial)
		for vi, v := range scanVariants {
			s := variantScorer(t, miss, v, ref, tgt)
			n := s.positions()
			ranges := [][2]int{{0, n - 1}, {n / 5, n - n/4}}
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				wantPos, want := sweepFrom(s, lo, hi)
				if trial%4 == 3 {
					for j := lo; j <= hi; j++ {
						if j != wantPos && s.scoreAt(j) == want {
							ties++
							break
						}
					}
				}
				floors := []float64{math.Inf(-1), want - 0.3, math.Nextafter(want, math.Inf(-1)),
					want, math.Nextafter(want, math.Inf(1)), want + 0.2, 1.2, 1.0}
				for _, floor := range floors {
					s.floor = floor
					s.abandoned = 0
					pos, sc := s.scan(lo, hi, noSeed, true)
					abandoned[vi] += s.abandoned
					if want >= floor {
						if pos != wantPos || sc != want {
							t.Fatalf("%s trial %d range %v floor %v: got (%d, %v), sweep (%d, %v)",
								v.name, trial, r, floor, pos, sc, wantPos, want)
						}
						exact[vi]++
						continue
					}
					if !(sc < floor) || sc > want {
						t.Fatalf("%s trial %d range %v floor %v: sub-floor maximum %v returned (%d, %v)",
							v.name, trial, r, floor, want, pos, sc)
					}
					below[vi]++
				}

				seeds := []float64{math.Inf(-1), want - 0.4, math.Nextafter(want, math.Inf(-1)), want,
					math.Nextafter(want, math.Inf(1)), want + 0.3}
				for _, floor := range []float64{math.Inf(-1), want, math.Nextafter(want, math.Inf(1)), 1.2} {
					s.floor = floor
					for _, seed := range seeds {
						for _, tiesWin := range []bool{true, false} {
							pos, sc := s.scan(lo, hi, seed, tiesWin)
							beats := func(v float64) bool { return v > seed || (tiesWin && v == seed) }
							if want >= floor && beats(want) {
								if pos != wantPos || sc != want {
									t.Fatalf("%s trial %d range %v floor %v seed %v tiesWin %v: got (%d, %v), sweep (%d, %v)",
										v.name, trial, r, floor, seed, tiesWin, pos, sc, wantPos, want)
								}
								exact[vi]++
								continue
							}
							if sc > want || (sc >= floor && beats(sc)) {
								t.Fatalf("%s trial %d range %v floor %v seed %v tiesWin %v: (%d, %v) could change combine; sweep max %v",
									v.name, trial, r, floor, seed, tiesWin, pos, sc, want)
							}
							below[vi]++
						}
					}
				}
			}
			s.release()
		}
	}
	for vi, v := range scanVariants {
		if exact[vi] == 0 || below[vi] == 0 || abandoned[vi] == 0 {
			t.Fatalf("%s: fixtures left a branch unexercised: exact %d, below %d, abandoned %d",
				v.name, exact[vi], below[vi], abandoned[vi])
		}
	}
	if ties == 0 {
		t.Fatal("fixtures never tied the maximum to the ulp")
	}
}

// TestSeededScanCombineEquivalence pins the seeded scan's contract for
// every scanVariant: the returned best must be bitwise exact whenever this
// direction would win combine against the seed (the other direction's
// score, under the given tie rule), and may only undercount — never
// overcount — when it loses. Either way combine's direction choice equals
// the cold full scan's, itself checked against the midpoint sweep
// (sweepFrom). The seed ladder includes the exact maximum itself, which is
// the clamped-correlation tie case (identical signals score exactly 2 in
// both directions): a ties-win direction must still find it exactly.
func TestSeededScanCombineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	miss := rand.New(rand.NewSource(12))
	const k, m, w = 5, 120, 16
	exact, undercut := make([]int, len(scanVariants)), make([]int, len(scanVariants))
	for trial := 0; trial < 60; trial++ {
		ref := randRows(rng, k, w)
		tgt := randRows(rng, k, m)
		switch trial % 3 {
		case 1: // strong planted maximum (score near 2)
			for i := 0; i < k; i++ {
				copy(tgt[i][60:60+w], ref[i])
			}
		case 2: // moderate noisy maximum
			for i := 0; i < k; i++ {
				for u := 0; u < w; u++ {
					tgt[i][30+u] = ref[i][u] + 0.5*rng.NormFloat64()
				}
			}
		}
		for vi, v := range scanVariants {
			s := variantScorer(t, miss, v, ref, tgt)
			n := s.positions()
			wantPos, wantScore := s.scan(0, n-1, noSeed, true)
			if sPos, sScore := sweepFrom(s, 0, n-1); wantPos != sPos || wantScore != sScore {
				t.Fatalf("%s trial %d: full scan (%d, %v), sweep (%d, %v)", v.name, trial, wantPos, wantScore, sPos, sScore)
			}
			for _, seed := range []float64{math.Inf(-1), wantScore - 0.5, wantScore, wantScore + 0.3} {
				for _, tiesWin := range []bool{true, false} {
					pos, sc := s.scan(0, n-1, seed, tiesWin)
					beats := wantScore > seed || (tiesWin && wantScore == seed)
					if beats {
						if pos != wantPos || sc != wantScore {
							t.Fatalf("%s trial %d seed %v tiesWin %v: winning direction returned (%d, %v), full scan (%d, %v)",
								v.name, trial, seed, tiesWin, pos, sc, wantPos, wantScore)
						}
						exact[vi]++
						continue
					}
					if sc > wantScore {
						t.Fatalf("%s trial %d seed %v tiesWin %v: seeded scan overcounted: %v > full scan %v",
							v.name, trial, seed, tiesWin, sc, wantScore)
					}
					undercut[vi]++
				}
			}
			s.release()
		}
	}
	for vi, v := range scanVariants {
		if exact[vi] == 0 || undercut[vi] == 0 {
			t.Fatalf("%s: fixture never exercised both branches (exact %d, undercut %d)", v.name, exact[vi], undercut[vi])
		}
	}
}
