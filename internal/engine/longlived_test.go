package engine_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rups/internal/core"
	"rups/internal/engine"
	"rups/internal/trajectory"
)

// matchOracle fails the test unless r is reflect.DeepEqual to the
// sequential core.Resolve oracle on the same views.
func matchOracle(t *testing.T, what string, r engine.Result, a, b *trajectory.Aware, p core.Params) {
	t.Helper()
	want, wantOK := core.Resolve(a, b, p)
	if r.OK != wantOK || !reflect.DeepEqual(r.Est, want) {
		t.Fatalf("%s: engine (%+v, %v), oracle (%+v, %v)", what, r.Est, r.OK, want, wantOK)
	}
}

// TestWarmResolveMatchesColdOracle: a convoy re-resolved by one long-lived
// engine across a ladder of growing contexts — warm in that the engine has
// seen every pair before — with every pair named by its identity, must
// answer every tick exactly like the sequential core.Resolve oracle: the
// pair state the engine keeps between batches never reaches a scan. Run
// under -race this also exercises the pool's concurrent pair tasks.
func TestWarmResolveMatchesColdOracle(t *testing.T) {
	trajs := syntheticConvoy(21, 4, 400, 25, 1.0)
	p := convoyParams()
	e := engine.New(0)
	defer e.Close()

	var pairs [][2]int
	for a := 0; a < len(trajs); a++ {
		for b := a + 1; b < len(trajs); b++ {
			pairs = append(pairs, [2]int{a, b})
		}
	}

	resolved := 0
	for _, now := range []float64{1300, 1325, 1350, 1375, 1399} {
		views := make([]*trajectory.Aware, len(trajs))
		for i, a := range trajs {
			views[i] = a.PrefixUntil(now)
		}
		b, err := e.Admit(views...)
		if err != nil {
			t.Fatal(err)
		}
		got := b.ResolvePairsAt(pairs, p, now, core.Staleness{})
		for i, r := range got {
			matchOracle(t, fmt.Sprintf("t=%v pair (%d,%d)", now, r.A, r.B), r, views[pairs[i][0]], views[pairs[i][1]], p)
			if r.OK {
				resolved++
			}
		}
	}
	if resolved == 0 {
		t.Fatal("no pair of the overlapping convoy ever resolved — fixture is broken")
	}
}

// TestCoherencyLossMatchesOracle drives one pair through a mid-convoy
// coherency loss on a long-lived engine: lock on, lose the partner to an
// uncorrelated impostor (refused, like the oracle), then re-acquire. Every
// tick must match the oracle.
func TestCoherencyLossMatchesOracle(t *testing.T) {
	trajs := syntheticConvoy(22, 2, 400, 25, 0.5)
	p := convoyParams()

	// An impostor wearing B's geometry but emitting pure noise: no shared
	// world signal, so every segment check fails its coherency threshold.
	rng := rand.New(rand.NewSource(99))
	g := trajectory.Geo{Marks: make([]trajectory.GeoMark, trajs[1].Len())}
	for i := range g.Marks {
		g.Marks[i] = trajectory.GeoMark{T: 999 + float64(i)}
	}
	noise := trajectory.NewAwareWidth(g, trajs[1].Width())
	for ch := 0; ch < noise.Width(); ch++ {
		for i := 0; i < noise.Len(); i++ {
			noise.SetPower(ch, i, -80+15*rng.NormFloat64())
		}
	}

	e := engine.New(0)
	defer e.Close()
	pairs := [][2]int{{0, 1}}
	for tick, partner := range []*trajectory.Aware{trajs[1], noise, trajs[1], trajs[1]} {
		b, err := e.Admit(trajs[0], partner)
		if err != nil {
			t.Fatal(err)
		}
		r := b.ResolvePairsAt(pairs, p, 1399, core.Staleness{})[0]
		matchOracle(t, fmt.Sprintf("tick %d", tick), r, trajs[0], partner, p)
		if r.OK == (partner == noise) {
			t.Fatalf("tick %d: OK=%v — fixture is broken", tick, r.OK)
		}
	}
}

// TestWarmStaggeredContextsMatchOracle re-resolves, on one long-lived
// engine, a pair whose contexts differ in length (B started reporting 13
// ticks earlier and leads by 150 marks), so one direction's true alignment
// lies beyond its partner's context every tick — the steady-state
// benchmark's shape. That direction must still be scanned (the oracle
// computes a real score there that can decide combine), seeded with the
// other direction's score. Every tick must equal the oracle exactly.
func TestWarmStaggeredContextsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const span, lead, n = 700, 150, 400
	world := make([][]float64, 64)
	for ch := range world {
		world[ch] = make([]float64, span)
		v := -80 + 20*rng.NormFloat64()
		for i := range world[ch] {
			v += 2 * rng.NormFloat64()
			if v < -110 {
				v = -110
			}
			if v > -45 {
				v = -45
			}
			world[ch][i] = v
		}
	}
	build := func(offset int, t0 float64, seed int64) *trajectory.Aware {
		g := trajectory.Geo{Marks: make([]trajectory.GeoMark, n)}
		for i := range g.Marks {
			g.Marks[i] = trajectory.GeoMark{T: t0 + float64(i)}
		}
		a := trajectory.NewAwareWidth(g, 64)
		vrng := rand.New(rand.NewSource(seed))
		for ch := 0; ch < 64; ch++ {
			for i := 0; i < n; i++ {
				a.SetPower(ch, i, world[ch][offset+i]+0.5*vrng.NormFloat64())
			}
		}
		return a
	}
	ta := build(0, 1000, 5)
	tb := build(lead, 987, 6)

	p := convoyParams()
	e := engine.New(0)
	defer e.Close()
	resolved := 0
	for _, now := range []float64{1350, 1360, 1370, 1380} {
		va, vb := ta.PrefixUntil(now), tb.PrefixUntil(now)
		if va.Len() == vb.Len() {
			t.Fatal("fixture lost its stagger — contexts have equal length")
		}
		b, err := e.Admit(va, vb)
		if err != nil {
			t.Fatal(err)
		}
		r := b.ResolvePairsAt([][2]int{{0, 1}}, p, now, core.Staleness{})[0]
		matchOracle(t, fmt.Sprintf("t=%v", now), r, va, vb, p)
		if r.OK {
			resolved++
		}
	}
	if resolved == 0 {
		t.Fatal("staggered pair never resolved — fixture is broken")
	}
}

// TestResolvePairsAtDuplicatePairs: pairs is caller-controlled and may
// list the same pair twice. The occurrences resolve concurrently and touch
// the same pair state — run under -race, every occurrence of every tick
// must match the oracle, and the pair is held once.
func TestResolvePairsAtDuplicatePairs(t *testing.T) {
	trajs := syntheticConvoy(31, 2, 400, 25, 0.5)
	p := convoyParams()
	e := engine.New(0)
	defer e.Close()
	pairs := [][2]int{{0, 1}, {0, 1}, {0, 1}, {0, 1}}
	for tick := 0; tick < 3; tick++ {
		b, err := e.Admit(trajs...)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range b.ResolvePairsAt(pairs, p, 1399, core.Staleness{}) {
			matchOracle(t, fmt.Sprintf("tick %d occurrence %d", tick, i), r, trajs[0], trajs[1], p)
			if !r.OK {
				t.Fatal("fixture pair never resolved — test exercised nothing")
			}
		}
	}
	if n := e.PairCount(); n != 1 {
		t.Errorf("engine holds state for %d pairs, want 1", n)
	}
}

// TestPairStateSweptAfterLongAbsence: a pair's state must not outlive the
// pair. It is held for PairIdleBatches generations without a query, swept
// by the next, and a re-contact starts it over and still matches the
// oracle.
func TestPairStateSweptAfterLongAbsence(t *testing.T) {
	trajs := syntheticConvoy(37, 3, 400, 25, 0.5)
	p := convoyParams()
	e := engine.New(0)
	defer e.Close()
	b, err := e.Admit(trajs...)
	if err != nil {
		t.Fatal(err)
	}

	for tick := 0; tick < 2; tick++ {
		if r := b.ResolvePairsAt([][2]int{{0, 1}}, p, 1399, core.Staleness{})[0]; !r.OK {
			t.Fatal("fixture pair did not resolve")
		}
	}
	// Let it idle past the sweep horizon while another pair keeps the
	// engine busy.
	for tick := 0; tick <= engine.PairIdleBatches; tick++ {
		if tick == engine.PairIdleBatches {
			if n := e.PairCount(); n != 2 {
				t.Fatalf("engine holds %d pairs after %d idle batches, want 2: swept too early", n, tick)
			}
		}
		b.ResolvePairsAt([][2]int{{1, 2}}, p, 1399, core.Staleness{})
	}
	if _, ok := e.PairClass(engine.PairID{0, 1}); ok {
		t.Error("idle pair still holds engine state")
	}
	if n := e.PairCount(); n != 1 {
		t.Errorf("engine holds state for %d pairs, want 1 (the live one)", n)
	}
	r := b.ResolvePairsAt([][2]int{{0, 1}}, p, 1399, core.Staleness{})[0]
	matchOracle(t, "re-contact after long absence", r, trajs[0], trajs[1], p)
	if n := e.PairCount(); n != 2 {
		t.Errorf("engine holds state for %d pairs after re-contact, want 2", n)
	}
}
