package sim

import (
	"fmt"

	"rups/internal/mobility"
	"rups/internal/noise"
	"rups/internal/obs"
	"rups/internal/trajectory"
)

// ConvoyRun is an executed N-vehicle scenario: vehicle 0 leads, vehicle i
// follows vehicle i−1 with the scenario's initial gap. It is the
// multi-vehicle counterpart of Run; LinkedConvoy resolves its pairs over
// the V2V link.
type ConvoyRun struct {
	Scenario Scenario
	Vehicles []*VehicleRun // index 0 = leader, increasing = further back
}

// ExecuteConvoy runs an n-vehicle follow chain deterministically: same
// city, field, and road selection as Execute, with each vehicle's full
// on-board pipeline.
func ExecuteConvoy(sc Scenario, n int) *ConvoyRun {
	if sc.DistanceM <= 0 || sc.Radios <= 0 || n < 2 {
		panic(fmt.Sprintf("sim: invalid convoy scenario %+v (n=%d)", sc, n))
	}
	w := newWorld(sc)
	traces := make([]*mobility.Trace, n)
	traces[0] = mobility.Drive(w.drive)
	for vi := 1; vi < n; vi++ {
		traces[vi] = mobility.Follow(w.followerDrive(sc, vi), traces[vi-1], sc.InitGapM)
	}

	run := &ConvoyRun{Scenario: sc, Vehicles: make([]*VehicleRun, n)}
	// One recorder lookup for the whole convoy, outside the vehicle loop.
	rec := obs.ActiveRecorder()
	for vi, tr := range traces {
		run.Vehicles[vi] = runVehicle(rec, tr, w.src, sc.Radios, sc.Placement,
			noise.Hash(sc.Seed, 0xC0, uint64(vi)), sc.SkipInterpolation, sc.Odometry)
	}
	return run
}

// TruthGapAt returns the ground-truth front-rear distance between vehicles
// i (rear) and j (front) at time t. Positive when j is ahead.
func (r *ConvoyRun) TruthGapAt(i, j int, t float64) float64 {
	return mobility.TrueGap(r.Vehicles[j].Truth, r.Vehicles[i].Truth, t)
}

// TimeSpan returns the convoy's common simulated interval: from the last
// vehicle's start to the earliest end.
func (r *ConvoyRun) TimeSpan() (t0, t1 float64) {
	t0 = r.Vehicles[0].Truth.States[0].T
	t1 = t0 + r.Vehicles[0].Truth.Duration()
	for _, v := range r.Vehicles[1:] {
		s0 := v.Truth.States[0].T
		s1 := s0 + v.Truth.Duration()
		if s0 > t0 {
			t0 = s0
		}
		if s1 < t1 {
			t1 = s1
		}
	}
	return t0, t1
}

// ContextsAt returns every vehicle's trajectory as known at time t — the
// per-tick admission input for the engine.
func (r *ConvoyRun) ContextsAt(t float64) []*trajectory.Aware {
	ctxs := make([]*trajectory.Aware, len(r.Vehicles))
	for i, v := range r.Vehicles {
		ctxs[i] = v.Aware.PrefixUntil(t)
	}
	return ctxs
}
