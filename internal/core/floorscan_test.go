package core

import (
	"math"
	"math/rand"
	"testing"
)

// sweepFrom scores every placement of [lo, hi] with scoreAt, in the bounded
// scan's visiting order (pivot, then outward; an out-of-range pivot means
// the midpoint), keeping the first strict maximum. It is the reference the
// bounded scan must reproduce: no bound, no floor, no abandoning.
func sweepFrom(s *segScorer, lo, hi, pivot int) (pos int, score float64) {
	if pivot < lo || pivot > hi {
		pivot = lo + (hi-lo)/2
	}
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

// TestFloorScanContract pins the bounded direction scan to a full scoreAt
// sweep, without trusting core.Resolve: whenever the sweep's maximum
// reaches the floor (and, when seeded, wins combine against the seed under
// the tie rule) the scan returns the same (pos, score) bit for bit;
// otherwise it returns a score that never exceeds the maximum and either
// misses the floor or loses to the seed. The floor and seed ladders hit
// the maximum exactly and one ulp either side of it.
func TestFloorScanContract(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var exact, below, abandoned, ties int
	for trial := 0; trial < 48; trial++ {
		ref, tgt := floorFixture(rng, trial)
		w := len(ref[0])
		src, dst := newMatrixIndex(ref), newMatrixIndex(tgt)
		dst.ensureWindowStats(w)
		s := newSegScorer(src, dst, 0, w, false)
		if !s.canBound() {
			t.Fatal("fixture should support the dense bound path")
		}
		n := s.positions()
		ranges := [][2]int{{0, n - 1}, {n / 5, n - n/4}}
		for _, r := range ranges {
			lo, hi := r[0], r[1]
			for _, pivot := range []int{-1, lo, hi, lo + (hi-lo)/3} {
				wantPos, want := sweepFrom(s, lo, hi, pivot)
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
					pos, sc := s.bestWindowInFrom(lo, hi, pivot)
					abandoned += s.abandoned
					if want >= floor {
						if pos != wantPos || sc != want {
							t.Fatalf("trial %d range %v pivot %d floor %v: got (%d, %v), sweep (%d, %v)",
								trial, r, pivot, floor, pos, sc, wantPos, want)
						}
						exact++
						continue
					}
					if !(sc < floor) || sc > want {
						t.Fatalf("trial %d range %v pivot %d floor %v: sub-floor maximum %v returned (%d, %v)",
							trial, r, pivot, floor, want, pos, sc)
					}
					below++
				}
			}

			// The seeded variant pivots on the midpoint; its reference is
			// the midpoint sweep.
			wantPos, want := sweepFrom(s, lo, hi, -1)
			seeds := []float64{math.Inf(-1), want - 0.4, math.Nextafter(want, math.Inf(-1)), want,
				math.Nextafter(want, math.Inf(1)), want + 0.3}
			for _, floor := range []float64{math.Inf(-1), want, math.Nextafter(want, math.Inf(1)), 1.2} {
				s.floor = floor
				for _, seed := range seeds {
					for _, tiesWin := range []bool{true, false} {
						pos, sc := s.bestWindowSeededIn(lo, hi, seed, tiesWin)
						wins := func(v float64) bool { return v > seed || (tiesWin && v == seed) }
						if want >= floor && wins(want) {
							if pos != wantPos || sc != want {
								t.Fatalf("trial %d range %v floor %v seed %v tiesWin %v: got (%d, %v), sweep (%d, %v)",
									trial, r, floor, seed, tiesWin, pos, sc, wantPos, want)
							}
							exact++
							continue
						}
						if sc > want || (sc >= floor && wins(sc)) {
							t.Fatalf("trial %d range %v floor %v seed %v tiesWin %v: (%d, %v) could change combine; sweep max %v",
								trial, r, floor, seed, tiesWin, pos, sc, want)
						}
						below++
					}
				}
			}
		}
		s.release()
	}
	if exact == 0 || below == 0 || abandoned == 0 || ties == 0 {
		t.Fatalf("fixtures left a branch unexercised: exact %d, below %d, abandoned %d, ulp ties %d",
			exact, below, abandoned, ties)
	}
}

// TestFloorScanKeepsNoColumnTermFullScan: the NoColumnTerm ablation has no
// column bound and keeps scanning every placement, so a floor changes
// neither its answer nor its placement count.
func TestFloorScanKeepsNoColumnTermFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ref, tgt := randRows(rng, 6, 16), randRows(rng, 6, 90)
	src, dst := newMatrixIndex(ref), newMatrixIndex(tgt)
	dst.ensureWindowStats(16)
	s := newSegScorer(src, dst, 0, 16, true)
	defer s.release()
	n := s.positions()
	wantPos, want := s.bestWindowIn(0, n-1)
	s.floor, s.visited = 1.2, 0
	if pos, sc := s.bestWindowIn(0, n-1); pos != wantPos || sc != want || s.visited != n || s.abandoned != 0 {
		t.Fatalf("NoColumnTerm scan under a floor: (%d, %v) over %d visits, want (%d, %v) over %d",
			pos, sc, s.visited, wantPos, want, n)
	}
}
