package engine_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"rups/internal/core"
	"rups/internal/engine"
	"rups/internal/obs/flight"
	"rups/internal/trajectory"
)

// TestPairIdentitySurvivesPermutation is the identity property: a convoy
// re-resolved over a tick ladder must give the same answers and leave the
// same per-pair staleness class whether its vehicles are admitted and
// queried in a fixed order or in a fresh random order every tick. State
// keys on the PairID, never on where a pair's trajectories sit in the
// batch. The ladder ends past the contexts' last marks, so pairs go stale,
// expire and come back fresh.
func TestPairIdentitySurvivesPermutation(t *testing.T) {
	trajs := syntheticConvoy(21, 4, 400, 25, 1.0)
	p := convoyParams()
	pol := core.Staleness{StaleAfterSec: 30, ExpireAfterSec: 150}
	fixed, shuffled := engine.New(0), engine.New(0)
	defer fixed.Close()
	defer shuffled.Close()

	var ids []engine.PairID
	for a := range trajs {
		for b := range trajs {
			if a != b {
				ids = append(ids, engine.PairID{uint32(a), uint32(b)})
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	resolved, aged := 0, 0
	for _, now := range []float64{1300, 1325, 1350, 1375, 1399, 1440, 1560, 1399} {
		views := make([]*trajectory.Aware, len(trajs))
		for i, a := range trajs {
			views[i] = a.PrefixUntil(now)
		}
		bf, err := fixed.Admit(views...)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]engine.Query, len(ids))
		for i, id := range ids {
			want[i] = engine.Query{A: int(id[0]), B: int(id[1]), Pair: id}
		}
		wantRes := bf.Resolve(want, p, now, pol)

		// perm[slot] is the vehicle admitted at slot; order shuffles the
		// queries.
		perm := rng.Perm(len(trajs))
		slot := make([]int, len(trajs))
		admitted := make([]*trajectory.Aware, len(trajs))
		for s, v := range perm {
			slot[v] = s
			admitted[s] = views[v]
		}
		bs, err := shuffled.Admit(admitted...)
		if err != nil {
			t.Fatal(err)
		}
		order := rng.Perm(len(ids))
		qs := make([]engine.Query, len(ids))
		for j, k := range order {
			id := ids[k]
			qs[j] = engine.Query{A: slot[id[0]], B: slot[id[1]], Pair: id}
		}
		for j, r := range bs.Resolve(qs, p, now, pol) {
			r.A, r.B = perm[r.A], perm[r.B]
			if w := wantRes[order[j]]; !reflect.DeepEqual(r, w) {
				t.Fatalf("t=%v pair %v: permuted result differs:\n%+v\n%+v", now, ids[order[j]], r, w)
			}
			if r.OK {
				resolved++
			}
		}
		for _, id := range ids {
			cf, okf := fixed.PairClass(id)
			cs, oks := shuffled.PairClass(id)
			if !okf || !oks || cf != cs {
				t.Fatalf("t=%v pair %v: staleness classes differ under permutation: %v, %v", now, id, cf, cs)
			}
			if cf != core.FreshContext {
				aged++
			}
		}
	}
	if resolved == 0 || aged == 0 {
		t.Fatalf("%d pairs resolved, %d classes held stale or expired — fixture is broken", resolved, aged)
	}
}

// TestExpiredPairLeavesNoState: a pair that expires records the crossing
// once — one staleness transition, one expiry, one refusal anomaly —
// however many ticks it stays expired, and once it is
// never queried again its state is swept like any idle pair's.
func TestExpiredPairLeavesNoState(t *testing.T) {
	ring := flight.NewRing(0, flight.Config{})
	flight.Enable(ring)
	defer flight.Disable()

	trajs := syntheticConvoy(23, 2, 400, 30, 0.5)
	p := convoyParams()
	e := engine.New(2)
	defer e.Close()
	b, err := e.Admit(trajs...)
	if err != nil {
		t.Fatal(err)
	}
	pol := core.Staleness{StaleAfterSec: 30, ExpireAfterSec: 150}
	const newest = 1398.0 // youngest context mark in the fixture
	gone, other := engine.PairID{10, 11}, engine.PairID{20, 21}
	query := func(id engine.PairID) []engine.Query {
		return []engine.Query{{A: 0, B: 1, Pair: id}}
	}

	if r := b.Resolve(query(gone), p, newest+5, pol)[0]; !r.OK {
		t.Fatal("fresh pair did not resolve")
	}
	for tick := 0; tick < 5; tick++ {
		if r := b.Resolve(query(gone), p, newest+500, pol)[0]; r.OK {
			t.Fatalf("tick %d: expired pair resolved", tick)
		}
	}
	kinds := map[flight.Kind]int{}
	for _, ev := range ring.Snapshot() {
		if ev.A == 10 && ev.B == 11 {
			kinds[ev.Kind]++
		}
	}
	for _, k := range []flight.Kind{flight.KindStaleness, flight.KindExpired, flight.KindRefused} {
		if kinds[k] != 1 {
			t.Errorf("%v events for a pair expired five ticks running: %d, want 1", k, kinds[k])
		}
	}

	// Another pair keeps the engine busy (expired too, so nothing scans)
	// until the departed pair has idled past the sweep horizon.
	for tick := 0; tick <= engine.PairIdleBatches; tick++ {
		b.Resolve(query(other), p, newest+500, pol)
	}
	if _, ok := e.PairClass(gone); ok {
		t.Error("departed expired pair still holds engine state")
	}
	if n := e.PairCount(); n != 1 {
		t.Errorf("engine holds state for %d pairs, want 1 (the live one)", n)
	}
}

// TestConcurrentBatchesDisjointPairs: batches naming disjoint pairs may
// resolve concurrently on one engine — they share its pair map, its
// generation counter and its pool. Meaningful under -race; every answer
// must still match the oracle.
func TestConcurrentBatchesDisjointPairs(t *testing.T) {
	trajs := syntheticConvoy(31, 2, 300, 25, 0.5)
	p := convoyParams()
	e := engine.New(2)
	defer e.Close()
	b, err := e.Admit(trajs...)
	if err != nil {
		t.Fatal(err)
	}
	want, wantOK := core.Resolve(trajs[0], trajs[1], p)
	var wg sync.WaitGroup
	for g := uint32(0); g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qs := []engine.Query{{A: 0, B: 1, Pair: engine.PairID{g, 100}}}
			for tick := 0; tick < 4; tick++ {
				r := b.Resolve(qs, p, 1399, core.Staleness{})[0]
				if r.OK != wantOK || !reflect.DeepEqual(r.Est, want) {
					t.Errorf("batch %d tick %d diverged from the oracle", g, tick)
				}
			}
		}()
	}
	wg.Wait()
	if n := e.PairCount(); n != 3 {
		t.Errorf("engine holds state for %d pairs, want 3", n)
	}
}

// TestConcurrentBatchesSharedPairs: batches naming the same pairs may
// resolve concurrently on one engine — they share each pair's state, its
// generation counter and the pool. Meaningful under -race; every answer
// must still be reflect.DeepEqual to the oracle, and the engine must hold
// exactly one state per pair.
func TestConcurrentBatchesSharedPairs(t *testing.T) {
	trajs := syntheticConvoy(33, 3, 300, 25, 0.5)
	p := convoyParams()
	e := engine.New(2)
	defer e.Close()
	b, err := e.Admit(trajs...)
	if err != nil {
		t.Fatal(err)
	}
	var qs []engine.Query
	for a := range trajs {
		for c := range trajs {
			if a != c {
				qs = append(qs, engine.Query{A: a, B: c, Pair: engine.PairID{uint32(a + 1), uint32(c + 1)}})
			}
		}
	}
	qs = append(qs, qs[0]) // one pair twice in the same batch too
	type answer struct {
		est core.Estimate
		ok  bool
	}
	want := make([]answer, len(qs))
	resolved := 0
	for i, q := range qs {
		want[i].est, want[i].ok = core.Resolve(trajs[q.A], trajs[q.B], p)
		if want[i].ok {
			resolved++
		}
	}
	if resolved == 0 {
		t.Fatal("no pair resolved — fixture is broken")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tick := 0; tick < 3; tick++ {
				for i, r := range b.Resolve(qs, p, 1299, core.Staleness{}) {
					if r.OK != want[i].ok || !reflect.DeepEqual(r.Est, want[i].est) {
						t.Errorf("batch %d tick %d pair %v diverged from the oracle", g, tick, qs[i].Pair)
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := e.PairCount(); n != len(qs)-1 {
		t.Errorf("engine holds state for %d pairs, want %d", n, len(qs)-1)
	}
}
