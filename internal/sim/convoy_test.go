package sim

import (
	"math"
	"reflect"
	"testing"

	"rups/internal/city"
	"rups/internal/core"
	"rups/internal/engine"
)

var sharedConvoy *ConvoyRun

func getConvoy(t *testing.T) *ConvoyRun {
	t.Helper()
	if sharedConvoy == nil {
		sc := DefaultScenario(17, city.FourLaneUrban)
		sc.DistanceM = 600
		sc.InitGapM = 20
		sharedConvoy = ExecuteConvoy(sc, 3)
	}
	return sharedConvoy
}

func TestConvoyPipelineSanity(t *testing.T) {
	r := getConvoy(t)
	if len(r.Vehicles) != 3 {
		t.Fatalf("convoy has %d vehicles", len(r.Vehicles))
	}
	for vi, v := range r.Vehicles {
		if v.Aware.Len() < 450 {
			t.Errorf("vehicle %d: only %d marks for a 600 m drive", vi, v.Aware.Len())
		}
	}
	// The chain is ordered: at the end of the drive each follower is behind
	// its predecessor.
	_, t1 := r.TimeSpan()
	for vi := 1; vi < len(r.Vehicles); vi++ {
		if gap := r.TruthGapAt(vi, vi-1, t1); gap <= 0 {
			t.Errorf("vehicle %d not behind %d at end: gap %v", vi, vi-1, gap)
		}
	}
}

// directResolve is the convoy's link-free oracle: every vehicle's context
// at t admitted straight into the engine, every pair (i < j) resolved cold.
func directResolve(t *testing.T, e *engine.Engine, r *ConvoyRun, tq float64, p core.Params) []engine.Result {
	t.Helper()
	b, err := e.Admit(r.ContextsAt(tq)...)
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][2]int
	for i := range r.Vehicles {
		for j := i + 1; j < len(r.Vehicles); j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return b.ResolvePairs(pairs, p)
}

// TestConvoyEngineMatchesSequential: a per-tick batch through the engine is
// bit-identical to resolving every pair sequentially on the same contexts.
func TestConvoyEngineMatchesSequential(t *testing.T) {
	r := getConvoy(t)
	t0, t1 := r.TimeSpan()
	tq := t0 + 0.8*(t1-t0)
	p := core.DefaultParams()

	e := engine.New(0)
	defer e.Close()
	got := directResolve(t, e, r, tq, p)
	if len(got) != 3 {
		t.Fatalf("3-vehicle tick produced %d results, want 3", len(got))
	}
	ctxs := r.ContextsAt(tq)
	resolved := 0
	for _, res := range got {
		wantEst, wantOK := core.Resolve(ctxs[res.A], ctxs[res.B], p)
		if res.OK != wantOK || !reflect.DeepEqual(res.Est, wantEst) {
			t.Fatalf("pair (%d,%d): engine diverged from sequential oracle", res.A, res.B)
		}
		if res.OK {
			resolved++
			truth := r.TruthGapAt(res.A, res.B, tq)
			if err := math.Abs(res.Est.Distance - truth); err > 30 {
				t.Errorf("pair (%d,%d): estimate %.1f vs truth %.1f", res.A, res.B, res.Est.Distance, truth)
			}
		}
	}
	if resolved == 0 {
		t.Fatal("no convoy pair resolved at the query tick")
	}
}

// BenchmarkExecuteConvoy builds one convoy the way perfbench's convoy-dsrc
// workload does (6 vehicles over 1200 m of a 4-lane urban road), so a move
// in its sim.execute_convoy_s can be reproduced with go test -bench.
func BenchmarkExecuteConvoy(b *testing.B) {
	sc := DefaultScenario(21, city.FourLaneUrban)
	sc.DistanceM = 1200
	for i := 0; i < b.N; i++ {
		ExecuteConvoy(sc, 6)
	}
}
