package sim

import (
	"math"
	"testing"

	"rups/internal/city"
	"rups/internal/core"
	"rups/internal/stats"
)

// One shared run for the expensive fixture.
var sharedRun *Run

func getRun(t *testing.T) *Run {
	t.Helper()
	if sharedRun == nil {
		sc := DefaultScenario(62, city.FourLaneUrban)
		sc.DistanceM = 900
		sharedRun = Execute(sc)
	}
	return sharedRun
}

func TestExecutePipelineSanity(t *testing.T) {
	r := getRun(t)
	for name, v := range map[string]*VehicleRun{"leader": r.Leader, "follower": r.Follower} {
		if v.Aware.Len() < 700 {
			t.Errorf("%s: only %d marks for a 900 m drive", name, v.Aware.Len())
		}
		if len(v.MarkTruePos) != v.Aware.Len() {
			t.Errorf("%s: truth positions misaligned", name)
		}
		if v.MissingBeforeInterp <= 0 || v.MissingBeforeInterp >= 1 {
			t.Errorf("%s: missing fraction %v implausible", name, v.MissingBeforeInterp)
		}
	}
}

func TestMarkPositionsFollowRoad(t *testing.T) {
	r := getRun(t)
	// Consecutive mark true positions are about a metre apart (odometer
	// scale error aside).
	v := r.Follower
	var acc stats.Online
	for i := 1; i < len(v.MarkTruePos); i++ {
		acc.Add(v.MarkTruePos[i].Dist(v.MarkTruePos[i-1]))
	}
	if acc.Mean() < 0.9 || acc.Mean() > 1.1 {
		t.Errorf("mean inter-mark spacing %v, want ~1 m", acc.Mean())
	}
}

func TestQueryResolvesDistance(t *testing.T) {
	r := getRun(t)
	p := core.DefaultParams()
	times := r.QueryTimes(25, 99)
	results := r.QueryMany(times, p)
	okCount := 0
	var rde stats.Online
	for _, q := range results {
		if !q.OK {
			continue
		}
		okCount++
		rde.Add(q.RDE)
		if q.TruthGap <= 0 {
			t.Errorf("truth gap %v not positive", q.TruthGap)
		}
	}
	if okCount < len(results)*5/10 {
		t.Fatalf("only %d/%d queries resolved", okCount, len(results))
	}
	if rde.Mean() > 8 {
		t.Errorf("mean RDE %v m, want single digits (paper: ~2-5 m)", rde.Mean())
	}
}

func TestQuerySYNError(t *testing.T) {
	r := getRun(t)
	p := core.DefaultParams()
	var syn stats.Online
	for _, q := range r.QueryMany(r.QueryTimes(15, 123), p) {
		if q.OK && !math.IsNaN(q.SYNErrM) {
			syn.Add(q.SYNErrM)
		}
	}
	if syn.N() == 0 {
		t.Fatal("no SYN errors recorded")
	}
	if syn.Mean() > 10 {
		t.Errorf("mean SYN error %v m", syn.Mean())
	}
}

func TestQueryGPSBaseline(t *testing.T) {
	r := getRun(t)
	p := core.DefaultParams()
	var gpsErr stats.Online
	for _, q := range r.QueryMany(r.QueryTimes(25, 7), p) {
		gpsErr.Add(q.GPSRDE)
	}
	// 4-lane urban: paper reports ~9.9 m for GPS.
	if gpsErr.Mean() < 3 || gpsErr.Mean() > 20 {
		t.Errorf("GPS mean RDE %v m, want urban-grade error", gpsErr.Mean())
	}
}

func TestExecuteDeterministic(t *testing.T) {
	sc := DefaultScenario(77, city.TwoLaneSuburb)
	sc.DistanceM = 400
	a := Execute(sc)
	b := Execute(sc)
	if a.Follower.Aware.Len() != b.Follower.Aware.Len() {
		t.Fatal("non-deterministic mark count")
	}
	for i := 0; i < a.Follower.Aware.Len(); i += 37 {
		if a.Follower.Aware.At(10, i) != b.Follower.Aware.At(10, i) {
			t.Fatal("non-deterministic power matrix")
		}
	}
}

func TestExecutePanicsOnBadScenario(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Execute(Scenario{})
}

func TestTruckPerturbationAffectsField(t *testing.T) {
	sc := DefaultScenario(88, city.EightLaneUrban)
	sc.DistanceM = 400
	sc.Trucks = 2
	r := Execute(sc)
	if r.Follower.Aware.Len() == 0 {
		t.Fatal("no trajectory")
	}
	// The perturbed run must still resolve most queries (robustness).
	p := core.DefaultParams()
	ok := 0
	results := r.QueryMany(r.QueryTimes(10, 5), p)
	for _, q := range results {
		if q.OK {
			ok++
		}
	}
	if ok < len(results)/2 {
		t.Errorf("only %d/%d queries resolved under perturbation", ok, len(results))
	}
}

// TestQueryManyLaserIndependentOfScheduling: the rangefinder reading of a
// query is fixed by the query, so a sequential pass and a parallel fan-out
// over the same times give identical laser readings.
func TestQueryManyLaserIndependentOfScheduling(t *testing.T) {
	r := getRun(t)
	p := core.DefaultParams()
	times := r.QueryTimes(12, 5)
	seq := r.QueryManyParallel(times, p, 1)
	par := r.QueryManyParallel(times, p, 4)
	seen := 0
	for i := range times {
		if seq[i].LaserOK != par[i].LaserOK || seq[i].LaserM != par[i].LaserM {
			t.Errorf("query %d at t=%v: sequential laser (%v, %v), parallel (%v, %v)",
				i, times[i], seq[i].LaserM, seq[i].LaserOK, par[i].LaserM, par[i].LaserOK)
		}
		if seq[i].LaserOK {
			seen++
		}
	}
	if seen == 0 {
		t.Fatal("no query had a laser reading; the check compared nothing")
	}
}
