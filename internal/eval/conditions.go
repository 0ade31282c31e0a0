package eval

// Conditions covers the remaining experimental axes the paper mentions but
// does not plot: traffic density (§VI-A: "we encountered both heavy and
// light traffic") and DSRC packet loss (the §V-B exchange arithmetic
// assumes a clean channel). It also validates the ground-truth pipeline
// against the simulated laser rangefinder the way the paper did.

import (
	"fmt"
	"math"

	"rups/internal/city"
	"rups/internal/core"
	"rups/internal/link"
	"rups/internal/mobility"
	"rups/internal/sim"
	"rups/internal/stats"
	"rups/internal/v2v"
)

// Traffic compares light vs heavy traffic on the same 8-lane road.
func Traffic(o Options) *Table {
	t := &Table{
		ID:    "traffic",
		Title: "Traffic density (§VI-A): light vs heavy flow, 8-lane urban, 4 front radios",
		Header: []string{"condition", "mean speed (m/s)", "resolved",
			"RDE mean (m)", "SYN err mean (m)", "laser checks"},
	}
	queries := o.n(300, 25)
	for _, cond := range []mobility.Condition{mobility.LightTraffic, mobility.HeavyTraffic} {
		sc := sim.DefaultScenario(o.Seed+3100, city.EightLaneUrban)
		sc.Condition = cond
		sc.StopEveryM = 400
		r := sim.Execute(sc)
		times := r.QueryTimes(queries, sc.Seed^0xC0FFEE)
		qs := r.QueryMany(times, core.DefaultParams())
		rde := collect(qs, rdeOf)
		syn := collect(qs, synErrOf)

		// Ground-truth validation: wherever the laser saw the leader,
		// compare the odometric truth against the optical reading.
		var laserDiff stats.Online
		for _, q := range qs {
			if q.LaserOK {
				laserDiff.Add(math.Abs(q.LaserM - q.TruthGap))
			}
		}
		name := "light"
		if cond == mobility.HeavyTraffic {
			name = "heavy"
		}
		meanSpeed := r.Follower.Truth.Distance() / r.Follower.Truth.Duration()
		t.AddRow(name, f2(meanSpeed),
			fmt.Sprintf("%d/%d", len(rde), len(qs)),
			f2(stats.Mean(rde)), f2(stats.Mean(syn)),
			fmt.Sprintf("%d (Δ %.2f m)", laserDiff.N(), laserDiff.Mean()))
	}
	t.Note("heavy traffic slows the scan-gap problem (denser coverage per metre) but adds stops; the laser column validates the odometric ground truth within its 50 m range")
	return t
}

// LinkLoss sweeps DSRC packet loss and reports the context exchange cost
// on the live sync path — the robustness of the §V-B arithmetic.
func LinkLoss(o Options) *Table {
	t := &Table{
		ID:    "linkloss",
		Title: "Context exchange vs DSRC packet loss (1 km context)",
		Header: []string{"loss prob", "packets", "retransmissions",
			"exchange time (s)", "delta time (s)"},
	}
	sc := sim.DefaultScenario(o.Seed+1500, city.FourLaneUrban)
	sc.DistanceM = 1100
	a := sim.Execute(sc).Follower.Aware
	var clean int
	for i, loss := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
		x := exchangeKm(a, link.Params{Seed: o.Seed, Loss: loss})
		if i == 0 {
			clean = x.data.Frames // the lossless run
		}
		t.AddRow(f2(loss),
			fmt.Sprintf("%d", x.data.Frames),
			fmt.Sprintf("%d", x.data.Frames-clean),
			f2(float64(x.rounds)*v2v.PacketRTT),
			fmt.Sprintf("%.4f", float64(x.deltaRounds)*v2v.PacketRTT))
	}
	t.Note("loss hits data frames and acks alike; go-back-N resends whole chunks, so retransmissions count frames beyond the clean run's")
	return t
}
