// Tracking: the §V-B scalability design as a running application. A
// vehicle continuously tracks the vehicle behind it at 2 Hz over a DSRC
// link that drops 2 % of its frames. Shipping the full journey context for
// every query would take a quarter second of air time each, so the rear
// vehicle streams only its newest marks over the reliable sync
// (sim.LinkedConvoy), and the front vehicle re-resolves on its
// link-delivered copy — lossless, so it never drifts from the original.
package main

import (
	"fmt"
	"math"

	"rups/internal/city"
	"rups/internal/core"
	"rups/internal/engine"
	"rups/internal/link"
	"rups/internal/sim"
	"rups/internal/v2v"
)

func main() {
	scenario := sim.DefaultScenario(77, city.FourLaneUrban)
	scenario.DistanceM = 1400
	run := sim.ExecuteConvoy(scenario, 2)
	lc := sim.NewLinkedConvoy(run, link.Params{Seed: 99, Loss: 0.02}, v2v.SyncConfig{Seed: 99}, core.Staleness{})
	e := engine.New(0)
	defer e.Close()
	params := core.DefaultParams()

	t0, end := run.TimeSpan()
	start := t0 + 60
	lc.Advance(start)
	initial := lc.Usage()
	fmt.Printf("initial exchange: %d frames, %d bytes, %.2f s air time\n\n",
		initial.Frames, initial.Bytes, initial.Airtime())

	queries, resolved := 0, 0
	fmt.Printf("%8s %9s %9s %8s %10s\n", "t (s)", "truth", "est", "err", "delta B")
	const tick = 0.5
	lastPrinted := -100.0
	for t := start + tick; t <= end; t += tick {
		lc.Advance(t)
		res, err := lc.ResolveAllAt(e, t, params)
		if err != nil {
			panic(err)
		}
		queries++
		r := res[0]
		if !r.OK {
			continue
		}
		resolved++
		if t-lastPrinted >= 10 {
			truth := run.TruthGapAt(r.A, r.B, t)
			fmt.Printf("%8.1f %8.1fm %8.1fm %7.1fm %10d\n",
				t-t0, truth, r.Est.Distance, math.Abs(r.Est.Distance-truth), lc.Usage().Bytes-initial.Bytes)
			lastPrinted = t
		}
	}

	u := lc.Usage()
	fmt.Printf("\ntracked for %.0f s: %d/%d queries resolved\n", end-start, resolved, queries)
	fmt.Printf("delta traffic: %d bytes in %d frames (%.2f s air), data and acks\n",
		u.Bytes-initial.Bytes, u.Frames-initial.Frames, u.Airtime()-initial.Airtime())
	fmt.Printf("full-context traffic would have been: at least %d bytes per query\n", initial.Bytes)
}
