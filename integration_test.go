// End-to-end integration tests: the full story of the paper exercised
// through the public seams — drive, sense, scan, bind, exchange over the
// wire, search, resolve — with ground truth checked at the end.
package rups_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"rups/internal/city"
	"rups/internal/core"
	"rups/internal/engine"
	"rups/internal/link"
	"rups/internal/sim"
	"rups/internal/trace"
	"rups/internal/trajectory"
	"rups/internal/v2v"
)

// TestEndToEndOverTheWire runs the complete pipeline including the V2V
// exchange: a two-vehicle convoy syncs over a DSRC link that drops 3 % of
// its frames, and the pair resolves from the link-delivered copy, not the
// in-memory original. The sync is lossless, so once it settles the answer
// is exactly the one the originals give.
func TestEndToEndOverTheWire(t *testing.T) {
	sc := sim.DefaultScenario(62, city.FourLaneUrban)
	sc.DistanceM = 900
	r := sim.ExecuteConvoy(sc, 2)

	t0, _ := r.TimeSpan()
	tm := t0 + 65
	lc := sim.NewLinkedConvoy(r, link.Params{Seed: 9, Loss: 0.03}, v2v.SyncConfig{Seed: 9}, core.Staleness{})
	for ts := t0 + 0.1; ts < tm; ts += 0.1 {
		lc.Advance(ts)
	}
	for i := 0; i < 1000 && !lc.Quiescent(); i++ {
		lc.Advance(tm)
	}
	if !lc.Quiescent() {
		t.Fatalf("sync not settled at t=%.1f (lag %d marks)", tm, lc.MaxLag())
	}
	if u := lc.Usage(); u.Frames == 0 || u.Airtime() <= 0 {
		t.Fatalf("exchange cost implausible: %+v", u)
	}

	e := engine.New(0)
	defer e.Close()
	p := core.DefaultParams()
	res, err := lc.ResolveAllAt(e, tm, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !res[0].OK {
		t.Fatalf("no estimate over the wire: %+v", res)
	}
	want, ok := core.Resolve(r.Vehicles[0].Aware.PrefixUntil(tm), r.Vehicles[1].Aware.PrefixUntil(tm), p)
	if !ok || !reflect.DeepEqual(res[0].Est, want) {
		t.Fatalf("over-the-wire estimate %+v differs from the originals' %+v", res[0].Est, want)
	}
	truth := r.TruthGapAt(0, 1, tm)
	if rde := math.Abs(res[0].Est.Distance - truth); rde > 10 {
		t.Errorf("over-the-wire RDE %v m (truth %v, est %v)", rde, truth, res[0].Est.Distance)
	}
}

// TestEndToEndTraceArchive drives, archives to the binary trace format, and
// replays a query from the archive bytes alone.
func TestEndToEndTraceArchive(t *testing.T) {
	sc := sim.DefaultScenario(62, city.FourLaneUrban)
	sc.DistanceM = 700
	rec := trace.FromRun(sim.Execute(sc), "integration")

	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var back trace.Record
	if _, err := back.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	tm := back.Follower.T0 + 50
	q := back.Query(tm, core.DefaultParams())
	if q.TruthGap <= 0 {
		t.Fatalf("archived truth gap %v", q.TruthGap)
	}
	if q.OK && q.RDE > 15 {
		t.Errorf("archived replay RDE %v", q.RDE)
	}
}

// TestEndToEndMultiband runs a full scenario with the FM band enabled and
// checks the wider trajectories still flow through every stage, including
// the wire format.
func TestEndToEndMultiband(t *testing.T) {
	sc := sim.DefaultScenario(63, city.EightLaneUrban)
	sc.DistanceM = 600
	sc.WithFM = true
	r := sim.Execute(sc)

	if w := r.Follower.Aware.Width(); w <= 194 {
		t.Fatalf("multiband width %d, want > 194", w)
	}
	a := r.Follower.Aware
	n := min(trajectory.MaxChunkMarks, a.Len())
	blob := trajectory.AppendChunk(nil, a.CopyChunk(0, n, make([]uint8, n*a.Width())))
	back, err := trajectory.ParseChunk(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Chans() != a.Width() {
		t.Fatal("multiband width lost on the wire")
	}

	tm := r.Follower.Truth.States[0].T + 35
	q := r.Query(tm, core.DefaultParams())
	if q.OK && q.RDE > 15 {
		t.Errorf("multiband RDE %v", q.RDE)
	}
}

// TestEndToEndOdometryVariants runs the full pipeline under each distance
// source and checks the scenario still resolves.
func TestEndToEndOdometryVariants(t *testing.T) {
	for _, src := range []sim.OdometrySource{sim.WheelOBD, sim.OBDOnly, sim.IMUOnly} {
		sc := sim.DefaultScenario(64, city.EightLaneUrban)
		sc.DistanceM = 700
		sc.StopEveryM = 350 // give the IMU estimator its ZUPTs
		sc.Odometry = src
		r := sim.Execute(sc)
		ok := 0
		times := r.QueryTimes(10, 3)
		for _, q := range r.QueryMany(times, core.DefaultParams()) {
			if q.OK {
				ok++
			}
		}
		if ok == 0 {
			t.Errorf("%v: nothing resolved", src)
		}
	}
}

// TestOdometrySourceString covers the enum labels.
func TestOdometrySourceString(t *testing.T) {
	for src, want := range map[sim.OdometrySource]string{
		sim.WheelOBD: "wheel + OBD", sim.OBDOnly: "OBD only",
		sim.IMUOnly: "IMU only", sim.OdometrySource(9): "unknown",
	} {
		if got := src.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", src, got, want)
		}
	}
}
