package eval

// PlatoonScale extends the §V-B scalability arithmetic to the live convoy
// path: N vehicles in a convoy, every pair syncing its context over the
// reliable DSRC sync (sim.LinkedConvoy) at 10 Hz and resolving at 2 Hz,
// all frames on one shared channel. The question is how channel load and
// accuracy behave as the convoy grows — the "heavy traffic and frequent
// queries" regime the paper's abstract claims RUPS scales to.

import (
	"fmt"
	"math"

	"rups/internal/city"
	"rups/internal/core"
	"rups/internal/engine"
	"rups/internal/link"
	"rups/internal/sim"
	"rups/internal/stats"
	"rups/internal/v2v"
)

// platoonMinContext is the context, in marks, every vehicle must hold
// before queries start: RUPS needs a stretch of common road.
const platoonMinContext = 100

// PlatoonScale sweeps the convoy size.
func PlatoonScale(o Options) *Table {
	t := &Table{
		ID:    "platoon",
		Title: "Protocol scalability: N-vehicle convoy on one DSRC channel (§V-B regime)",
		Header: []string{"vehicles", "queries", "resolved", "RDE mean (m)",
			"peak copy lag (m)", "channel util", "kB/s/vehicle", "frames"},
	}
	sizes := []int{2, 4, 8}
	if !o.Quick {
		sizes = []int{2, 4, 8, 12}
	}
	e := engine.New(0)
	defer e.Close()
	p := core.DefaultParams()
	for _, n := range sizes {
		sc := sim.DefaultScenario(o.Seed+3000, city.EightLaneUrban)
		if o.Quick {
			sc.DistanceM = 800
		}
		run := sim.ExecuteConvoy(sc, n)
		lc := sim.NewLinkedConvoy(run, link.Params{Seed: sc.Seed}, v2v.SyncConfig{Seed: sc.Seed}, core.Staleness{})
		t0, t1 := run.TimeSpan()
		var queries, resolved, lag int
		var rde stats.Online
		for k := 1; t0+float64(k)*0.1 <= t1; k++ {
			now := t0 + float64(k)*0.1
			lc.Advance(now)
			if k%5 != 0 || run.Vehicles[n-1].Aware.PrefixUntil(now).Len() < platoonMinContext {
				continue
			}
			lag = max(lag, lc.MaxLag())
			res, err := lc.ResolveAllAt(e, now, p)
			if err != nil {
				panic(err) // the engine is open until this function returns
			}
			for _, r := range res {
				queries++
				if r.OK {
					resolved++
					rde.Add(math.Abs(r.Est.Distance - run.TruthGapAt(r.A, r.B, now)))
				}
			}
		}
		u, dur := lc.Usage(), t1-t0
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", queries),
			fmt.Sprintf("%d (%.0f%%)", resolved, 100*float64(resolved)/float64(max(1, queries))),
			f2(rde.Mean()),
			fmt.Sprintf("%d", lag),
			fmt.Sprintf("%.1f%%", 100*u.Airtime()/dur),
			f2(float64(u.Bytes)/dur/float64(n)/1024),
			fmt.Sprintf("%d", u.Frames),
		)
	}
	t.Note("each of the n(n−1)/2 pairs syncs over its own session and every pair resolves at each query, so channel load grows quadratically; utilization is the frames' airtime (bytes / 600 kB/s + 0.8 ms each) over the drive, and the copy lag is the largest backlog of any pair at a query")
	return t
}
