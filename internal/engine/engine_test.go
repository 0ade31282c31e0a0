package engine_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"rups/internal/core"
	"rups/internal/engine"
	"rups/internal/trajectory"
)

// syntheticConvoy builds n trajectories over a shared per-channel world
// signal, vehicle v offset v·gap metres behind the leader — the same
// planted-alignment construction core's property tests use, extended to a
// platoon. Every adjacent pair overlaps by length−gap metres.
func syntheticConvoy(seed int64, n, length, gap int, noiseSigma float64) []*trajectory.Aware {
	rng := rand.New(rand.NewSource(seed))
	world := make([][]float64, 64)
	span := length + (n-1)*gap
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
	out := make([]*trajectory.Aware, n)
	for vi := 0; vi < n; vi++ {
		// The leader (vehicle 0) is farthest along the road.
		offset := (n - 1 - vi) * gap
		g := trajectory.Geo{Marks: make([]trajectory.GeoMark, length)}
		for i := range g.Marks {
			g.Marks[i] = trajectory.GeoMark{T: 1000 - float64(vi) + float64(i)}
		}
		a := trajectory.NewAwareWidth(g, 64)
		vrng := rand.New(rand.NewSource(seed + int64(vi) + 1))
		for ch := 0; ch < 64; ch++ {
			for i := 0; i < length; i++ {
				a.SetPower(ch, i, world[ch][offset+i]+noiseSigma*vrng.NormFloat64())
			}
		}
		out[vi] = a
	}
	return out
}

// resolveAll resolves every unordered pair (i < j) of the batch as the
// cold oracle (queries without identity), in pair-enumeration order.
func resolveAll(b *engine.Batch, p core.Params) []engine.Result {
	var qs []engine.Query
	for i := 0; i < b.Len(); i++ {
		for j := i + 1; j < b.Len(); j++ {
			qs = append(qs, engine.Query{A: i, B: j})
		}
	}
	return b.Resolve(qs, p, 0, core.Staleness{})
}

func convoyParams() core.Params {
	p := core.DefaultParams()
	p.WindowChannels = 40
	return p
}

// TestEngineMatchesOracle is the equivalence proof the engine rests on: all
// pairs of a 6-vehicle platoon resolved concurrently must be bit-identical
// to the sequential core.Resolve oracle — estimates, SYN points, scores,
// everything. Run under -race this is also the engine's main race check.
func TestEngineMatchesOracle(t *testing.T) {
	trajs := syntheticConvoy(1, 6, 300, 15, 1.0)
	p := convoyParams()
	e := engine.New(0)
	defer e.Close()
	batch, err := e.Admit(trajs...)
	if err != nil {
		t.Fatal(err)
	}
	got := resolveAll(batch, p)
	if len(got) != 15 {
		t.Fatalf("6-vehicle platoon has %d results, want 15", len(got))
	}
	resolved := 0
	for _, r := range got {
		wantEst, wantOK := core.Resolve(trajs[r.A], trajs[r.B], p)
		if r.OK != wantOK {
			t.Fatalf("pair (%d,%d): engine OK=%v, oracle OK=%v", r.A, r.B, r.OK, wantOK)
		}
		if !reflect.DeepEqual(r.Est, wantEst) {
			t.Fatalf("pair (%d,%d): engine and oracle estimates differ:\n%+v\n%+v",
				r.A, r.B, r.Est, wantEst)
		}
		if r.OK {
			resolved++
		}
	}
	if resolved == 0 {
		t.Fatal("no pair of the overlapping convoy resolved — fixture is broken")
	}
}

// TestEngineSingleWorkerNestedFanout: with one worker, the pair task runs
// on the worker and its nested direction fan-out must fall back inline
// instead of deadlocking on the saturated pool.
func TestEngineSingleWorkerNestedFanout(t *testing.T) {
	trajs := syntheticConvoy(2, 3, 250, 20, 1.0)
	p := convoyParams()
	e := engine.New(1)
	defer e.Close()
	batch, err := e.Admit(trajs...)
	if err != nil {
		t.Fatal(err)
	}
	got := resolveAll(batch, p)
	for _, r := range got {
		wantEst, wantOK := core.Resolve(trajs[r.A], trajs[r.B], p)
		if r.OK != wantOK || !reflect.DeepEqual(r.Est, wantEst) {
			t.Fatalf("pair (%d,%d) diverged from oracle under 1 worker", r.A, r.B)
		}
	}
}

// TestEngineConcurrentAppend: admission (Admit, on the goroutine that owns
// the trajectories) must fully decouple resolution from live trajectory
// growth — once Admit returns, vehicles keep appending marks while the
// batch resolves on its snapshots. Meaningful under -race.
func TestEngineConcurrentAppend(t *testing.T) {
	trajs := syntheticConvoy(3, 4, 250, 20, 1.0)
	p := convoyParams()
	e := engine.New(0)
	defer e.Close()

	// Admission happens at quiescence; appends start only afterwards.
	batch, err := e.Admit(trajs...)
	if err != nil {
		t.Fatal(err)
	}

	// Every appender has appended once before the batch starts resolving,
	// so the appends really run beside resolution however the scheduler
	// orders the goroutines.
	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	for vi := range trajs {
		wg.Add(1)
		started.Add(1)
		go func(a *trajectory.Aware) {
			defer wg.Done()
			power := make([]float64, 64)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for ch := range power {
					power[ch] = -80 + float64(i%20)
				}
				a.Append(trajectory.GeoMark{T: 2000 + float64(i)}, power)
				if i == 0 {
					started.Done()
				}
			}
		}(trajs[vi])
	}
	started.Wait()
	for round := 0; round < 3; round++ {
		res := resolveAll(batch, p)
		if len(res) != 6 {
			t.Fatalf("round %d: %d results, want 6", round, len(res))
		}
	}
	close(stop)
	wg.Wait()

	// The snapshots really are decoupled: the live trajectories grew, the
	// batch's view did not.
	for vi, a := range trajs {
		if a.Len() <= 250 {
			t.Fatalf("vehicle %d never appended (len %d)", vi, a.Len())
		}
	}
}

// TestEngineDegenerate: empty batches, empty trajectories, and bad pair
// indexes all answer cleanly.
func TestEngineDegenerate(t *testing.T) {
	p := convoyParams()
	e := engine.New(2)
	defer e.Close()
	batch, err := e.Admit()
	if err != nil {
		t.Fatal(err)
	}
	if res := resolveAll(batch, p); len(res) != 0 {
		t.Fatalf("empty batch: %d results", len(res))
	}
	empty := trajectory.NewAware(trajectory.Geo{})
	batch, err = e.Admit(empty, empty)
	if err != nil {
		t.Fatal(err)
	}
	res := resolveAll(batch, p)
	if len(res) != 1 || res[0].OK {
		t.Fatalf("empty trajectories resolved: %+v", res)
	}
	trajs := syntheticConvoy(4, 2, 250, 20, 1.0)
	batch, err = e.Admit(trajs...)
	if err != nil {
		t.Fatal(err)
	}
	res = batch.ResolvePairs([][2]int{{0, 5}, {-1, 1}, {0, 1}}, p)
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	if res[0].OK || res[1].OK {
		t.Fatal("out-of-range pairs must not resolve")
	}
	if !res[2].OK {
		t.Fatal("valid pair of the overlapping convoy should resolve")
	}
	if res[2].A != 0 || res[2].B != 1 {
		t.Fatalf("result order not preserved: %+v", res[2])
	}
}

// TestEngineResolveSingle: a one-query Resolve matches the oracle too.
func TestEngineResolveSingle(t *testing.T) {
	trajs := syntheticConvoy(5, 2, 300, 25, 1.0)
	p := convoyParams()
	e := engine.New(0)
	defer e.Close()
	b, err := e.Admit(trajs...)
	if err != nil {
		t.Fatal(err)
	}
	got := b.Resolve([]engine.Query{{A: 0, B: 1, Pair: engine.PairID{7, 9}}}, p, 0, core.Staleness{})
	wantEst, wantOK := core.Resolve(trajs[0], trajs[1], p)
	if len(got) != 1 || got[0].OK != wantOK || !reflect.DeepEqual(got[0].Est, wantEst) {
		t.Fatalf("single resolve diverged: %+v vs %+v", got, wantEst)
	}
}

// TestEngineAdmitAfterClose: Close used to leave the task channel closed
// while Admit/schedule still tried to send on it — a panic. Every admission
// entry point must now answer ErrClosed instead, and Close must stay
// idempotent.
func TestEngineAdmitAfterClose(t *testing.T) {
	trajs := syntheticConvoy(6, 2, 250, 20, 1.0)
	p := convoyParams()
	e := engine.New(2)

	// Admit a batch before Close: it must still resolve afterwards (the
	// pool degrades to inline execution) without panicking.
	batch, err := e.Admit(trajs...)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent

	if _, err := e.Admit(trajs...); err != engine.ErrClosed {
		t.Fatalf("Admit after Close: err = %v, want ErrClosed", err)
	}
	res := resolveAll(batch, p)
	if len(res) != 1 {
		t.Fatalf("pre-Close batch resolved %d pairs, want 1", len(res))
	}
	wantEst, wantOK := core.Resolve(trajs[0], trajs[1], p)
	if res[0].OK != wantOK || !reflect.DeepEqual(res[0].Est, wantEst) {
		t.Fatal("pre-Close batch diverged from oracle after Close")
	}
}

// TestEngineCloseDuringResolve hammers Close against in-flight admission
// and resolution — under -race this is the regression test for the
// send-on-closed-channel panic.
func TestEngineCloseDuringResolve(t *testing.T) {
	trajs := syntheticConvoy(7, 3, 250, 20, 1.0)
	p := convoyParams()
	for round := 0; round < 8; round++ {
		e := engine.New(2)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				batch, err := e.Admit(trajs...)
				if err != nil {
					if err != engine.ErrClosed {
						t.Errorf("Admit: %v", err)
					}
					continue
				}
				resolveAll(batch, p)
			}
		}()
		go func() {
			defer wg.Done()
			e.Close()
		}()
		wg.Wait()
	}
}
