package core

// Degenerate-input guards for the sliding scorer, alongside the
// internal/stats degenerate suite: zero-channel selections, zero-length
// windows, and targets shorter than the window must all answer "no
// evidence" (no positions, score 0) instead of panicking — the
// pre-refactor newSlidingScorer panicked via len(ref[0]) on an empty
// selection, and scoreAt divided by k.

import (
	"math"
	"math/rand"
	"testing"

	"rups/internal/trajectory"
)

func TestMatrixIndexZeroChannels(t *testing.T) {
	idx := newMatrixIndex(nil)
	if idx.k != 0 || idx.m != 0 {
		t.Fatalf("zero-channel index has k=%d m=%d", idx.k, idx.m)
	}
	s := newSegScorer(idx, idx, 0, 10, false)
	defer s.release()
	if s.positions() != 0 {
		t.Fatalf("zero-channel scorer has %d positions", s.positions())
	}
	if got := s.scoreAt(0); got != 0 {
		t.Fatalf("zero-channel scoreAt = %v, want 0", got)
	}
	if pos, score := s.scan(0, s.positions()-1, noSeed, true); pos != -1 || !math.IsInf(score, -1) {
		t.Fatalf("zero-channel scan = (%d, %v)", pos, score)
	}
}

func TestMatrixIndexZeroColumns(t *testing.T) {
	rows := [][]float64{{}, {}, {}}
	idx := newMatrixIndex(rows)
	if idx.k != 3 || idx.m != 0 {
		t.Fatalf("zero-column index has k=%d m=%d", idx.k, idx.m)
	}
	s := newSegScorer(idx, idx, 0, 8, false)
	defer s.release()
	if s.positions() != 0 {
		t.Fatalf("zero-column scorer has %d positions", s.positions())
	}
	if got := s.scoreAt(0); got != 0 {
		t.Fatalf("zero-column scoreAt = %v, want 0", got)
	}
}

func TestSegScorerZeroWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	idx := newMatrixIndex(randRows(rng, 4, 30))
	for _, w := range []int{0, -3} {
		s := newSegScorer(idx, idx, 0, w, false)
		if s.positions() != 0 {
			t.Fatalf("w=%d scorer has %d positions", w, s.positions())
		}
		if got := s.scoreAt(0); got != 0 {
			t.Fatalf("w=%d scoreAt = %v, want 0", w, got)
		}
		s.release()
	}
}

func TestSegScorerTargetShorterThanWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	src := newMatrixIndex(randRows(rng, 4, 50))
	tgt := newMatrixIndex(randRows(rng, 4, 10))
	s := newSegScorer(src, tgt, 0, 25, false)
	defer s.release()
	if s.positions() != 0 {
		t.Fatalf("m<w scorer has %d positions", s.positions())
	}
	if pos, score := s.scan(0, 100, noSeed, true); pos != -1 || !math.IsInf(score, -1) {
		t.Fatalf("m<w scan = (%d, %v)", pos, score)
	}
}

func TestSegScorerSegmentOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	idx := newMatrixIndex(randRows(rng, 4, 30))
	for _, c := range []struct{ lo, w int }{{-1, 10}, {25, 10}, {0, 31}} {
		s := newSegScorer(idx, idx, c.lo, c.w, false)
		if s.positions() != 0 {
			t.Fatalf("lo=%d w=%d scorer has %d positions", c.lo, c.w, s.positions())
		}
		s.release()
	}
}

// TestFindSYNEmptyTrajectories: resolution on zero-length trajectories is
// a clean "no SYN", not a panic.
func TestFindSYNEmptyTrajectories(t *testing.T) {
	empty := trajectory.NewAware(trajectory.Geo{})
	if _, ok := FindSYN(empty, empty, DefaultParams()); ok {
		t.Fatal("found SYN on empty trajectories")
	}
	if _, ok := Resolve(empty, awareOfLen(200), DefaultParams()); ok {
		t.Fatal("resolved against an empty trajectory")
	}
}
