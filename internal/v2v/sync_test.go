package v2v

import (
	"math"
	"testing"

	"rups/internal/link"
	"rups/internal/stats"
	"rups/internal/trajectory"
)

// runSync steps the session at a fixed sim time until quiescent, returning
// the rounds it took (or maxRounds if it never settled).
func runSync(s *Session, now float64, maxRounds int) int {
	for r := 0; r < maxRounds; r++ {
		s.Step(r, now)
		if s.Quiescent() {
			return r
		}
	}
	return maxRounds
}

// assertBitExact compares the peer copy against the sender's visible
// prefix cell by cell on float bits, so NaN (missing) cells compare equal
// and any quantization would be caught.
func assertBitExact(t *testing.T, cp, src *trajectory.Aware, wantLen int) {
	t.Helper()
	if cp.Len() != wantLen {
		t.Fatalf("copy holds %d marks, want %d", cp.Len(), wantLen)
	}
	for i := 0; i < wantLen; i++ {
		if cp.Geo.Marks[i] != src.Geo.Marks[i] {
			t.Fatalf("mark %d: %+v vs %+v", i, cp.Geo.Marks[i], src.Geo.Marks[i])
		}
	}
	if cp.Width() != src.Width() {
		t.Fatalf("copy has %d channels, want %d", cp.Width(), src.Width())
	}
	for ch := 0; ch < src.Width(); ch++ {
		for i := 0; i < wantLen; i++ {
			a, b := math.Float64bits(cp.At(ch, i)), math.Float64bits(src.At(ch, i))
			if a != b {
				t.Fatalf("power [%d][%d]: %x vs %x", ch, i, a, b)
			}
		}
	}
}

func TestSessionPerfectLinkBitExact(t *testing.T) {
	src := mkAware(21, 300)
	// A few missing cells: the chunk encoding must carry MissingCell through.
	src.SetPower(3, 7, stats.Missing)
	src.SetPower(100, 250, stats.Missing)
	data := link.New(link.Params{Seed: 1}, 0)
	ack := link.New(link.Params{Seed: 1}, 1)
	s := NewSession(src, data, ack, SyncConfig{})
	rounds := runSync(s, 1e9, 5000)
	if !s.Quiescent() {
		t.Fatalf("no quiescence on a perfect link after %d rounds", rounds)
	}
	assertBitExact(t, s.Copy(), src, src.Len())
	// 300 marks / 8 per chunk = 38 chunks over a window of 8: a clean link
	// finishes in well under one round per chunk pair.
	if rounds > 200 {
		t.Errorf("perfect link took %d rounds for 300 marks", rounds)
	}
}

func TestSessionVisibilityHorizon(t *testing.T) {
	src := mkAware(23, 120) // mark i completes at T = i+1
	data := link.New(link.Params{Seed: 2}, 0)
	ack := link.New(link.Params{Seed: 2}, 1)
	s := NewSession(src, data, ack, SyncConfig{})
	runSync(s, 50.5, 2000)
	if got := s.Copy().Len(); got != 50 {
		t.Fatalf("copy holds %d marks at t=50.5, want 50 (no future leakage)", got)
	}
	runSync(s, 1e9, 2000)
	assertBitExact(t, s.Copy(), src, src.Len())
}

func TestSessionLossyLinkConverges(t *testing.T) {
	src := mkAware(22, 200)
	p := link.Params{
		Seed: 9, Loss: 0.25,
		BurstEnter: 0.01, BurstExit: 0.2,
		Reorder: 0.1, Duplicate: 0.05, Corrupt: 0.05, Jitter: 2,
	}
	data := link.New(p, 0)
	ack := link.New(p, 1)
	s := NewSession(src, data, ack, SyncConfig{Seed: 5})
	rounds := runSync(s, 1e9, 100000)
	if !s.Quiescent() {
		t.Fatalf("no convergence under 25%% loss + bursts after %d rounds (copy %d/%d)",
			rounds, s.Copy().Len(), src.Len())
	}
	assertBitExact(t, s.Copy(), src, src.Len())
}

func TestSessionDeterministicPerSeed(t *testing.T) {
	mk := func() *Session {
		src := mkAware(24, 150)
		p := link.Params{Seed: 11, Loss: 0.3, Reorder: 0.15, Duplicate: 0.1, Corrupt: 0.05}
		return NewSession(src, link.New(p, 0), link.New(p, 1), SyncConfig{Seed: 7})
	}
	a, b := mk(), mk()
	ra := runSync(a, 1e9, 100000)
	rb := runSync(b, 1e9, 100000)
	if ra != rb || a.rx.Applied() != b.rx.Applied() || a.Copy().Len() != b.Copy().Len() {
		t.Fatalf("same seeds diverged: rounds %d vs %d, applied %d vs %d",
			ra, rb, a.rx.Applied(), b.rx.Applied())
	}
}

func TestSessionTotalOutageThenHeal(t *testing.T) {
	src := mkAware(25, 100)
	p := link.Params{Seed: 13}
	data := link.New(p, 0)
	ack := link.New(p, 1)
	s := NewSession(src, data, ack, SyncConfig{Seed: 3})

	// Outage from the first round: nothing must get through, and the
	// sender must back off rather than spin.
	out := p
	out.BurstEnter, out.BurstExit = 1, 0
	data.SetParams(out)
	ack.SetParams(out)
	for r := 0; r < 2000; r++ {
		s.Step(r, 1e9)
	}
	if got := s.Copy().Len(); got != 0 {
		t.Fatalf("copy holds %d marks through a total outage", got)
	}

	// Heal and continue: the protocol must recover with no external help.
	data.SetParams(p)
	ack.SetParams(p)
	for r := 2000; r < 12000; r++ {
		s.Step(r, 1e9)
		if s.Quiescent() {
			break
		}
	}
	if !s.Quiescent() {
		t.Fatal("no recovery after the link healed")
	}
	assertBitExact(t, s.Copy(), src, src.Len())
}
