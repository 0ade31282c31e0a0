// Platoon: the distributed protocol at work. Six vehicles drive downtown
// in a convoy; every vehicle runs its own sensing pipeline, and every pair
// keeps a copy of the other's journey context current over the reliable
// DSRC sync (sim.LinkedConvoy) at 10 Hz, resolving their distance at
// 2 Hz — the §V-B scalability design as a running system. The output is
// the network operator's view: accuracy, copy lag, and channel budget.
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
	const vehicles = 6
	fmt.Printf("building a %d-vehicle convoy (full sensing pipeline per vehicle)...\n", vehicles)
	run := sim.ExecuteConvoy(sim.DefaultScenario(2024, city.EightLaneUrban), vehicles)
	lc := sim.NewLinkedConvoy(run, link.Params{Seed: 2024}, v2v.SyncConfig{Seed: 2024}, core.Staleness{})
	e := engine.New(0)
	defer e.Close()
	params := core.DefaultParams()

	t0, t1 := run.TimeSpan()
	fmt.Printf("running the DSRC sync for %.0f s of driving...\n\n", t1-t0)
	type agg struct {
		n, ok int
		rde   float64
	}
	pairs := map[[2]int]*agg{}
	queries, resolved, peakLag := 0, 0, 0
	for k := 1; t0+float64(k)*0.1 <= t1; k++ {
		now := t0 + float64(k)*0.1
		lc.Advance(now)
		if k%5 != 0 {
			continue
		}
		peakLag = max(peakLag, lc.MaxLag())
		res, err := lc.ResolveAllAt(e, now, params)
		if err != nil {
			panic(err)
		}
		for _, r := range res {
			key := [2]int{r.A, r.B}
			a := pairs[key]
			if a == nil {
				a = &agg{}
				pairs[key] = a
			}
			a.n++
			queries++
			if r.OK {
				a.ok++
				resolved++
				a.rde += math.Abs(r.Est.Distance - run.TruthGapAt(r.A, r.B, now))
			}
		}
	}

	fmt.Printf("%8s  %9s  %10s\n", "pair", "resolved", "mean RDE")
	for i := 0; i+1 < vehicles; i++ {
		a := pairs[[2]int{i, i + 1}]
		if a == nil || a.ok == 0 {
			fmt.Printf("  %d ↔ %d   %9s  %10s\n", i, i+1, "0", "-")
			continue
		}
		fmt.Printf("  %d ↔ %d   %4d/%-4d  %9.1fm\n", i, i+1, a.ok, a.n, a.rde/float64(a.ok))
	}

	u, dur := lc.Usage(), t1-t0
	fmt.Printf("\nnetwork totals over %.0f s (%d pairs):\n", dur, len(pairs))
	fmt.Printf("  pair queries:        %d (%d resolved)\n", queries, resolved)
	fmt.Printf("  peak copy lag:       %d m behind the live context\n", peakLag)
	fmt.Printf("  frames on the air:   %d (%d kB)\n", u.Frames, u.Bytes/1024)
	fmt.Printf("  channel utilization: %.1f%% of one DSRC channel\n", 100*u.Airtime()/dur)
	fmt.Printf("  per-vehicle load:    %.1f kB/s\n", float64(u.Bytes)/dur/vehicles/1024)
}
