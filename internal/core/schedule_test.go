package core

import (
	"math"
	"testing"

	"rups/internal/stats"
	"rups/internal/trajectory"
)

// fullScan scores every admissible placement of one direction with
// scoreAt — no bound, no floor, no seed — and returns the maximum, its
// placement in the cold visiting order (sweepFrom), and whether exactly
// one placement holds it.
func fullScan(sc *segScorer, lo, hi int) (pos int, score float64, unique bool) {
	lo, hi = clampRange(lo, hi, sc.positions())
	if hi < lo {
		return -1, math.Inf(-1), true
	}
	pos, score = sweepFrom(sc, lo, hi)
	n := 0
	for j := lo; j <= hi; j++ {
		if sc.scoreAt(j) == score {
			n++
		}
	}
	return pos, score, n == 1
}

// TestSegmentScheduleMatchesFullScans pins the one-task segment schedule
// to the double-sliding check's definition: for every planned segment,
// scanSegment's combine (AB scanned first, BA seeded with its score) equals
// combine over two unpruned full scans — the same verdict and Score, and
// the same IdxA/IdxB wherever the winning direction's maximum is unique.
// The fixtures cover a planted pair, an unrelated pair, a pair 150 m
// apart, a pair whose contexts start 150 m apart, the single-sided and
// no-column-term ablations, and a sparse pair whose segments score through
// stats.Pearson.
func TestSegmentScheduleMatchesFullScans(t *testing.T) {
	p40 := DefaultParams()
	p40.WindowChannels = 40
	with := func(mod func(*Params)) Params {
		p := p40
		mod(&p)
		return p
	}
	unrelated := func() (a, b *trajectory.Aware) {
		a, _ = plantedPair(31, 300, 20, 1.0)
		_, b = plantedPair(32, 300, 20, 1.0)
		return a, b
	}
	planted := func() (a, b *trajectory.Aware) { return plantedPair(33, 300, 20, 1.0) }
	fixtures := []struct {
		name   string
		pair   func() (a, b *trajectory.Aware)
		p      Params
		sparse bool
	}{
		{"planted", planted, p40, false},
		{"unrelated", unrelated, p40, false},
		{"gap-150m", func() (a, b *trajectory.Aware) { return pairOnRoad(t, 150, 320) }, DefaultParams(), false},
		{"staggered-150m", func() (a, b *trajectory.Aware) {
			// B joined the road 150 m after A: both end at the same spot,
			// B's context is 150 m shorter.
			f := field(t)
			a = awareOnRoad(f, 500, 1500, 320, 1000, 12, 7)
			b = awareOnRoad(f, 650, 1500, 170, 1000+150.0/12, 12, 8)
			return a, b
		}, DefaultParams(), false},
		{"single-sided", planted, with(func(p *Params) { p.SingleSided = true }), false},
		{"no-column-term", planted, with(func(p *Params) { p.NoColumnTerm = true }), false},
		{"sparse", func() (a, b *trajectory.Aware) {
			a, b = pairOnRoad(t, 35, 320)
			for ch := 0; ch < 194; ch += 7 {
				for i := ch % 13; i < b.Len(); i += 29 {
					b.SetPower(ch, i, stats.Missing)
				}
			}
			return a, b
		}, DefaultParams(), true},
	}
	var accepted, rejected int
	for _, fx := range fixtures {
		a, b := fx.pair()
		s := NewSearcher(a, b, fx.p)
		if fx.sparse == (s.idxA.dense && s.idxB.dense) {
			t.Fatalf("%s: fixture's density is not what the case needs", fx.name)
		}
		for seg := 0; seg < fx.p.NumSYN; seg++ {
			pl, ok := s.planSegment(seg * fx.p.SegmentStrideMeters)
			if !ok {
				continue
			}
			endA := s.aCtx.Len() - 1 - pl.endOff
			endB := s.bCtx.Len() - 1 - pl.endOff
			loB, hiB := s.bounds(s.bCtx.Len(), pl.w, pl.endOff)
			loA, hiA := s.bounds(s.aCtx.Len(), pl.w, pl.endOff)

			ref := pl
			ab := newSegScorer(s.idxA, s.idxB, endA-pl.w+1, pl.w, fx.p.NoColumnTerm)
			var abUnique, baUnique bool
			ref.posB, ref.scoreAB, abUnique = fullScan(ab, loB, hiB)
			ref.posA, ref.scoreBA, baUnique = -1, math.Inf(-1), true
			var ba *segScorer
			if !fx.p.SingleSided {
				ba = newSegScorer(s.idxB, s.idxA, endB-pl.w+1, pl.w, fx.p.NoColumnTerm)
				ref.posA, ref.scoreBA, baUnique = fullScan(ba, loA, hiA)
			}
			want, wantOK := s.combine(&ref)
			unique := abUnique
			if ref.scoreBA > ref.scoreAB {
				unique = baUnique
			}

			s.scanSegment(&pl)
			syn, gotOK := s.combine(&pl)
			if gotOK != wantOK || syn.Score != want.Score || syn.WindowLen != want.WindowLen {
				t.Fatalf("%s seg %d: got (%+v, %v), full scans (%+v, %v)", fx.name, seg, syn, gotOK, want, wantOK)
			}
			if wantOK && unique && (syn.IdxA != want.IdxA || syn.IdxB != want.IdxB) {
				t.Fatalf("%s seg %d: SYN at (%d, %d), full scans' unique maximum at (%d, %d)",
					fx.name, seg, syn.IdxA, syn.IdxB, want.IdxA, want.IdxB)
			}
			if wantOK {
				accepted++
			} else {
				rejected++
			}
			ab.release()
			if ba != nil {
				ba.release()
			}
		}
		s.Release()
	}
	t.Logf("segments: %d accepted, %d rejected", accepted, rejected)
	if accepted == 0 || rejected == 0 {
		t.Fatal("fixtures did not exercise both verdicts")
	}
}
