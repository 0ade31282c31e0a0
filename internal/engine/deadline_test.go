package engine_test

import (
	"reflect"
	"sync"
	"testing"

	"rups/internal/core"
	"rups/internal/engine"
)

// deadlineQueries names each pair by its slot indexes and attaches its
// deadline.
func deadlineQueries(pairs [][2]int, dls []float64) []engine.Query {
	qs := make([]engine.Query, len(pairs))
	for i, pr := range pairs {
		qs[i] = engine.Query{A: pr[0], B: pr[1],
			Pair: engine.PairID{uint32(pr[0]), uint32(pr[1])}, Deadline: dls[i]}
	}
	return qs
}

// TestDeadlineShedDeadOnArrival: a pair whose deadline passed before the
// batch was admitted is shed before any scheduling — Shed true, OK false —
// while pairs with live or absent deadlines resolve normally.
func TestDeadlineShedDeadOnArrival(t *testing.T) {
	trajs := syntheticConvoy(3, 3, 250, 20, 1.0)
	p := convoyParams()
	e := engine.New(0)
	defer e.Close()
	b, err := e.Admit(trajs...)
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int{{0, 1}, {1, 2}, {0, 2}}
	now := 2000.0
	dls := []float64{now - 0.001, now + 10, 0} // expired, live, none
	res := b.Resolve(deadlineQueries(pairs, dls), p, now, core.Staleness{})
	if !res[0].Shed || res[0].OK {
		t.Fatalf("expired pair: %+v, want shed and not OK", res[0])
	}
	for i := 1; i < 3; i++ {
		if res[i].Shed || !res[i].OK {
			t.Fatalf("live pair %d: %+v, want resolved", i, res[i])
		}
	}
	// Shed results must match the cold oracle for the surviving pairs.
	want := b.ResolvePairs(pairs[1:], p)
	for i := range want {
		if res[i+1].Est.Distance != want[i].Est.Distance {
			t.Fatalf("pair %d estimate diverged from oracle", i+1)
		}
	}
}

// TestDeadlineRecheckAtTaskStart: with SetClock installed, a deadline that
// was live at admission but expired while the task waited for a worker is
// shed when the task starts, not run.
func TestDeadlineRecheckAtTaskStart(t *testing.T) {
	trajs := syntheticConvoy(4, 3, 250, 20, 1.0)
	p := convoyParams()
	e := engine.New(2)
	defer e.Close()
	// The injected clock runs far ahead of the batch's now: every deadline
	// that survives the admission check has expired by the time any task
	// starts. Deterministic — no real clock involved.
	e.SetClock(func() float64 { return 1e9 })
	b, err := e.Admit(trajs...)
	if err != nil {
		t.Fatal(err)
	}
	now := 2000.0
	pairs := [][2]int{{0, 1}, {1, 2}}
	dls := []float64{now + 5, now + 5} // live at admission, dead at start
	res := b.Resolve(deadlineQueries(pairs, dls), p, now, core.Staleness{})
	for i, r := range res {
		if !r.Shed || r.OK {
			t.Fatalf("pair %d: %+v, want shed at task start", i, r)
		}
	}
	// Zero deadlines never consult the clock: the same batch still
	// resolves everything.
	res = b.Resolve(deadlineQueries(pairs, []float64{0, 0}), p, now, core.Staleness{})
	for i, r := range res {
		if r.Shed || !r.OK {
			t.Fatalf("undeadlined pair %d: %+v, want resolved", i, r)
		}
	}
}

// TestDeadlineNilMatchesResolvePairsAt: queries without deadlines resolve
// exactly like ResolvePairsAt, bit for bit.
func TestDeadlineNilMatchesResolvePairsAt(t *testing.T) {
	trajs := syntheticConvoy(5, 3, 250, 20, 1.0)
	p := convoyParams()
	pol := core.Staleness{StaleAfterSec: 30, ExpireAfterSec: 150}
	e := engine.New(0)
	defer e.Close()
	b, err := e.Admit(trajs...)
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int{{0, 1}, {1, 2}, {0, 2}}
	now := 1250.0 // newest mark T≈1249 → fresh
	want := b.ResolvePairsAt(pairs, p, now, pol)
	got := b.Resolve(deadlineQueries(pairs, []float64{0, 0, 0}), p, now, pol)
	stripLat := func(rs []engine.Result) []engine.Result {
		out := append([]engine.Result(nil), rs...)
		for i := range out {
			out[i].LatencySec = 0
		}
		return out
	}
	if !reflect.DeepEqual(stripLat(want), stripLat(got)) {
		t.Fatalf("undeadlined queries diverged:\n%+v\n%+v", want, got)
	}
}

// TestEngineCloseDuringResolvePairsAt is the shutdown-race regression test
// for the staleness/deadline entry point: Close racing an in-flight
// ResolvePairsAt (and deadlined Resolve) batch must neither panic nor
// deadlock — admitted batches degrade to inline execution and still return
// oracle-correct results. Run under -race.
func TestEngineCloseDuringResolvePairsAt(t *testing.T) {
	trajs := syntheticConvoy(6, 3, 250, 20, 1.0)
	p := convoyParams()
	pol := core.Staleness{StaleAfterSec: 30, ExpireAfterSec: 150}
	pairs := [][2]int{{0, 1}, {1, 2}, {0, 2}}
	for round := 0; round < 8; round++ {
		e := engine.New(2)
		e.SetClock(func() float64 { return 1250.0 })
		b, err := e.Admit(trajs...)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				res := b.ResolvePairsAt(pairs, p, 1250.0, pol)
				for pi, r := range res {
					if !r.OK {
						t.Errorf("round %d iter %d pair %d not OK", round, i, pi)
					}
				}
				dres := b.Resolve(deadlineQueries(pairs, []float64{1e9, 1e9, 1e9}), p, 1250.0, pol)
				for pi, r := range dres {
					if !r.OK || r.Shed {
						t.Errorf("round %d iter %d deadlined pair %d: %+v", round, i, pi, r)
					}
				}
			}
		}()
		go func() {
			defer wg.Done()
			e.Close()
		}()
		wg.Wait()
		e.Close()
	}
}
