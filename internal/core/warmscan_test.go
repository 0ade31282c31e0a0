package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestWarmPivotMatchesFullScan is the soundness property of the warm-start
// scan, for every scanVariant: scan must return the full range's exact
// maximum for *every* pivot — the same as the midpoint scan and as the
// sweep in that pivot's visiting order (sweepFrom). A warm hint only
// reorders the branch-and-bound evaluation, it must never change the
// result. The fixtures are crafted to break a scan that trusts its pivot:
// self-similar corridors where an above-threshold noisy decoy sits near
// the pivot while the true maximum lies far away, so a bound that stopped
// at the pivot-local best would return the decoy.
func TestWarmPivotMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	miss := rand.New(rand.NewSource(8))
	const k, m, w = 5, 120, 16
	for trial := 0; trial < 40; trial++ {
		ref := randRows(rng, k, w)
		tgt := randRows(rng, k, m)
		if trial%2 == 1 {
			// Plant the reference twice: an exact copy (the true maximum)
			// and a noisy decoy far away, so a pivot near the decoy starts
			// from a strong interior local maximum that is still wrong.
			for i := 0; i < k; i++ {
				copy(tgt[i][80:80+w], ref[i])
				for u := 0; u < w; u++ {
					tgt[i][20+u] = ref[i][u] + 0.7*rng.NormFloat64()
				}
			}
		}
		for _, v := range scanVariants {
			s := variantScorer(t, miss, v, ref, tgt)
			n := s.positions()
			wantPos, wantScore := s.scan(0, n-1, -1, noSeed, true)
			for pivot := 0; pivot < n; pivot += 3 {
				pos, score := s.scan(0, n-1, pivot, noSeed, true)
				if pos != wantPos || score != wantScore {
					t.Fatalf("%s trial %d pivot %d: warm-pivoted scan returned (%d, %v), full scan (%d, %v)",
						v.name, trial, pivot, pos, score, wantPos, wantScore)
				}
				if sPos, sScore := sweepFrom(s, 0, n-1, pivot); pos != sPos || score != sScore {
					t.Fatalf("%s trial %d pivot %d: warm-pivoted scan returned (%d, %v), sweep (%d, %v)",
						v.name, trial, pivot, pos, score, sPos, sScore)
				}
			}
			s.release()
		}
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
			wantPos, wantScore := s.scan(0, n-1, -1, noSeed, true)
			if sPos, sScore := sweepFrom(s, 0, n-1, -1); wantPos != sPos || wantScore != sScore {
				t.Fatalf("%s trial %d: full scan (%d, %v), sweep (%d, %v)", v.name, trial, wantPos, wantScore, sPos, sScore)
			}
			for _, seed := range []float64{math.Inf(-1), wantScore - 0.5, wantScore, wantScore + 0.3} {
				for _, tiesWin := range []bool{true, false} {
					pos, sc := s.scan(0, n-1, -1, seed, tiesWin)
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
