package engine_test

import (
	"reflect"
	"testing"

	"rups/internal/core"
	"rups/internal/engine"
	"rups/internal/obs"
	"rups/internal/stats"
	"rups/internal/trajectory"
)

// sharedSideBatch is a batch whose queries share resolver sides along every
// path a side can take: slot 0 (dense, longer than MaxContextMeters, so
// clipped at an offset) resolves against six peers, one of them sparse, so
// its side materializes lazily on first use; slot 1 (sparse) materializes
// at build and serves five peers; slot 2 serves one. Around them sit the
// queries that must not build or hold a side: shed at admission (slot 3),
// shed at task start (slot 4, and one of slot 0's), expired (slot 7, and
// one of slot 0's), and out of range.
type sharedSideBatch struct {
	trajs []*trajectory.Aware
	qs    []engine.Query
	p     core.Params
	pol   core.Staleness
	now   float64
	// clock is the engine's task-start clock: deadlines in (now, clock)
	// survive admission and are shed at task start.
	clock float64
	// sides is how many slots hold a query that runs: 0, 1 and 2.
	sides int
}

func newSharedSideBatch(t *testing.T) sharedSideBatch {
	const length = 300
	trajs := syntheticConvoy(11, 7, length, 15, 1.0)
	// Slots 1 and 5 hold missing cells on every fifth channel.
	for _, v := range []int{1, 5} {
		for ch := 0; ch < 64; ch += 5 {
			for i := ch % 11; i < length; i += 23 {
				trajs[v].SetPower(ch, i, stats.Missing)
			}
		}
	}
	// Slot 6 is shorter than MaxContextMeters: not clipped.
	trajs[6] = trajs[6].Tail(200)
	// Slot 7 ended long ago: every pair with it has expired.
	old := syntheticConvoy(12, 1, length, 15, 1.0)[0]
	for i := range old.Geo.Marks {
		old.Geo.Marks[i].T -= 5000
	}
	trajs = append(trajs, old)

	p := convoyParams()
	p.MaxContextMeters = 260
	if trajs[0].Len() <= p.MaxContextMeters || trajs[6].Len() > p.MaxContextMeters {
		t.Fatal("fixture lengths do not straddle MaxContextMeters")
	}
	// Vehicle v's newest mark is T = 1000 − v + length − 1; the oldest
	// live one (v = 6) is 11 s old at now, fresh under the policy.
	now := 1000.0 + length + 4
	run := func(a, b int) engine.Query { return engine.Query{A: a, B: b} }
	withDeadline := func(a, b int, dl float64) engine.Query {
		return engine.Query{A: a, B: b, Deadline: dl}
	}
	qs := []engine.Query{
		run(0, 1), run(0, 2), run(0, 3), run(0, 4), run(0, 5), run(0, 6),
		withDeadline(0, 2, now+50), // shed at task start
		run(0, 7),                  // expired
		run(1, 0), run(1, 2), run(1, 3), run(1, 4), run(1, 6),
		withDeadline(2, 5, now+1e6), // live at task start
		withDeadline(3, 0, now-1),   // shed at admission
		withDeadline(4, 0, now+50), withDeadline(4, 1, now+50),
		run(7, 2), run(7, 3), // expired
		run(0, 99), run(99, 0), // out of range
	}
	return sharedSideBatch{trajs: trajs, qs: qs, p: p,
		pol: core.Staleness{StaleAfterSec: 30, ExpireAfterSec: 150},
		now: now, clock: now + 100, sides: 3}
}

// want is each query's result as the batch must report it: the cold
// core.Resolve oracle's estimate for every query that runs, and today's
// shed, expired and out-of-range results for the rest.
func (f sharedSideBatch) want() []engine.Result {
	out := make([]engine.Result, len(f.qs))
	for i, q := range f.qs {
		r := engine.Result{A: q.A, B: q.B}
		switch {
		case q.A >= len(f.trajs) || q.B >= len(f.trajs):
		case q.Deadline > 0 && f.now > q.Deadline:
			r.Shed = true
		case q.A == 7 || q.B == 7:
			r.Freshness = core.ExpiredContext
		case q.Deadline > 0 && f.clock > q.Deadline:
			r.Shed = true
		default:
			r.Est, r.OK = core.Resolve(f.trajs[q.A], f.trajs[q.B], f.p)
		}
		out[i] = r
	}
	return out
}

// TestSharedSidesMatchOracle: queries sharing their slot's resolver side
// resolve bit-identically to core.Resolve, which builds a private side per
// pair, on one worker and on four; queries that must not run keep their
// shed and expired results; exactly the slots with a running query build
// a side, and every side built goes back to the pool by the time Resolve
// returns.
func TestSharedSidesMatchOracle(t *testing.T) {
	f := newSharedSideBatch(t)
	want := f.want()
	reg := obs.NewRegistry()
	obs.Enable(reg)
	defer obs.Disable()
	sides := reg.Counter("rups_engine_resolver_sides_total", "")
	for _, workers := range []int{1, 4} {
		e := engine.New(workers)
		e.SetClock(func() float64 { return f.clock })
		b, err := e.Admit(f.trajs...)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			before := sides.Value()
			got := b.Resolve(f.qs, f.p, f.now, f.pol)
			for i := range got {
				got[i].LatencySec = 0
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("workers=%d round %d query %d %+v:\ngot  %+v\nwant %+v", workers, round, i, f.qs[i], got[i], want[i])
				}
			}
			if n := sides.Value() - before; n != uint64(f.sides) {
				t.Fatalf("workers=%d round %d: %d resolver sides built, want %d", workers, round, n, f.sides)
			}
			if out := e.SidesOut(); out != 0 {
				t.Fatalf("workers=%d round %d: %d resolver sides not released", workers, round, out)
			}
		}
		e.Close()
	}
}

// TestSharedSidesConcurrentBatches: batches resolving at once on one
// engine each share their own sides, and release them all.
func TestSharedSidesConcurrentBatches(t *testing.T) {
	f := newSharedSideBatch(t)
	want := f.want()
	e := engine.New(4)
	defer e.Close()
	e.SetClock(func() float64 { return f.clock })
	done := make(chan []engine.Result)
	for range 3 {
		b, err := e.Admit(f.trajs...)
		if err != nil {
			t.Fatal(err)
		}
		go func() { done <- b.Resolve(f.qs, f.p, f.now, f.pol) }()
	}
	for range 3 {
		got := <-done
		for i := range got {
			got[i].LatencySec = 0
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("a concurrent batch diverged from the oracle")
		}
	}
	if out := e.SidesOut(); out != 0 {
		t.Fatalf("%d resolver sides not released", out)
	}
}
