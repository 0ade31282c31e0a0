// Command rups-sim runs one live scenario and streams the resolved
// relative distances next to ground truth — what a dashboard in the rear
// car would show. The default is the paper's two-vehicle setup with the
// GPS baseline; -vehicles N > 2 drives an N-vehicle convoy whose vehicles
// sync their contexts over the DSRC link with the reliable sync protocol,
// and resolves every pair per tick through the batch engine from what the
// link delivered.
//
// Telemetry: -debug-addr serves live Prometheus metrics (/metrics), the
// span ring (/debug/spans, filterable by ?trace= and paginated by
// ?after=/?limit=), SLO burn rates (/debug/slo), and pprof while the
// simulation runs; -metrics-snapshot writes the final registry state to a
// file, -dump-spans prints the recorded pipeline timeline, and -spans-out
// writes the span ring as JSON for offline analysis by rups-obs.
//
// Flight recorder: -flight-dir arms anomaly-triggered capsule dumps (a
// refused pair, an SLO breach, a retransmit burst freezes the trailing
// protocol history to disk); -dump-flight-on-exit additionally writes one
// full-ring capsule when the run ends. -slo-config loads a custom
// objective roster (JSON) in place of the default three.
//
// Link faults: -loss/-burst/-reorder/-dup/-corrupt/-link-seed set the
// convoy link's fault model (none by default: a clean link). Pairs whose
// copies age are flagged stale or refused entirely
// (-stale-after/-expire-after); -heal-frac clears the faults partway
// through to show recovery. With -vehicles 2, any fault flag puts the
// pair on the link too, in place of the two-vehicle setup.
//
// Usage:
//
//	rups-sim [-class 1] [-radios 4] [-lane-gap 0] [-distance 1200] [-trucks 0] [-seed 7] [-interval 2] [-vehicles 2] [-workers 0]
//	         [-loss 0] [-burst 0] [-reorder 0] [-dup 0] [-corrupt 0] [-link-seed 0] [-heal-frac 0.7] [-stale-after 30] [-expire-after 150]
//	         [-debug-addr 127.0.0.1:6060] [-metrics-snapshot out.prom] [-dump-spans] [-spans-out spans.json]
//	         [-flight-dir capsules/] [-slo-config slo.json] [-dump-flight-on-exit]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"rups/internal/city"
	"rups/internal/core"
	"rups/internal/engine"
	"rups/internal/link"
	"rups/internal/obs"
	"rups/internal/obs/flight"
	"rups/internal/obs/slo"
	"rups/internal/sim"
	"rups/internal/v2v"
)

func main() {
	var (
		class    = flag.Int("class", 1, "road class: 0=2-lane suburb, 1=4-lane urban, 2=8-lane urban, 3=under elevated")
		radios   = flag.Int("radios", 4, "GSM scanning radios per vehicle")
		laneGap  = flag.Int("lane-gap", 0, "lanes between the two vehicles (0 = same lane)")
		distance = flag.Float64("distance", 1200, "drive length, metres")
		trucks   = flag.Int("trucks", 0, "passing-truck perturbation events")
		seed     = flag.Uint64("seed", 7, "scenario seed")
		interval = flag.Float64("interval", 2, "query interval, seconds")
		vehicles = flag.Int("vehicles", 2, "convoy size; above 2 syncs over the V2V link and resolves all pairs per tick via the engine")
		workers  = flag.Int("workers", 0, "engine worker-pool size (0 = GOMAXPROCS)")

		loss        = flag.Float64("loss", 0, "i.i.d. frame drop probability on the V2V link")
		burst       = flag.Float64("burst", 0, "Gilbert–Elliott burst-entry probability (burst = full outage until exit)")
		reorder     = flag.Float64("reorder", 0, "frame reorder probability")
		dup         = flag.Float64("dup", 0, "frame duplication probability")
		corrupt     = flag.Float64("corrupt", 0, "frame bit-corruption probability")
		linkSeed    = flag.Uint64("link-seed", 0, "fault-model seed (0 = 1); with -vehicles 2, any nonzero value (or any fault flag) puts the pair on the link")
		healFrac    = flag.Float64("heal-frac", 0.7, "fraction of the run after which link faults clear (1 = never heal)")
		staleAfter  = flag.Float64("stale-after", 30, "flag pair results stale past this context age, seconds (0 disables)")
		expireAfter = flag.Float64("expire-after", 150, "refuse pair results past this context age, seconds (0 disables)")

		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/spans, /debug/slo, and pprof on this address (host defaults to loopback)")
		snapshot  = flag.String("metrics-snapshot", "", "write the final Prometheus metrics snapshot to this file")
		dumpSpans = flag.Bool("dump-spans", false, "print the recorded span timeline to stderr at exit")
		spansOut  = flag.String("spans-out", "", "write the span ring as JSON to this file at exit (input for rups-obs)")

		flightDir  = flag.String("flight-dir", "", "write anomaly-triggered flight capsules into this directory")
		sloConfig  = flag.String("slo-config", "", "load the SLO objective roster from this JSON file (default: built-in roster)")
		dumpFlight = flag.Bool("dump-flight-on-exit", false, "write one full flight-ring capsule to -flight-dir at exit")
	)
	flag.Parse()

	if *class < 0 || *class >= city.NumRoadClasses {
		fmt.Fprintln(os.Stderr, "rups-sim: -class must be 0..3")
		os.Exit(2)
	}
	if *vehicles < 2 {
		fmt.Fprintln(os.Stderr, "rups-sim: -vehicles must be at least 2")
		os.Exit(2)
	}

	// Telemetry is on for every rups-sim run: the binary is the live
	// harness, and the registry is how its runs are inspected.
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(obs.DefaultRingSize)
	obs.Enable(reg)
	obs.SetRecorder(rec)
	fl := flight.NewRing(flight.DefaultRingSize, flight.Config{Dir: *flightDir})
	flight.Enable(fl)
	objectives := slo.DefaultRoster()
	if *sloConfig != "" {
		var err error
		if objectives, err = slo.Load(*sloConfig); err != nil {
			fmt.Fprintf(os.Stderr, "rups-sim: slo config: %v\n", err)
			os.Exit(2)
		}
	}
	slt := slo.New(objectives, reg)
	if *debugAddr != "" {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		srv, err := obs.ServeDebug(ctx, *debugAddr, reg, rec,
			obs.Route{Pattern: "/debug/slo", Handler: slt.Handler()})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rups-sim: debug server: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug endpoint on http://%s (metrics, debug/spans, debug/slo, debug/pprof)\n", srv.Addr())
	}
	defer func() {
		if *snapshot != "" {
			f, err := os.Create(*snapshot)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rups-sim: metrics snapshot: %v\n", err)
				os.Exit(1)
			}
			werr := reg.WritePrometheus(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintf(os.Stderr, "rups-sim: metrics snapshot: %v\n", werr)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "metrics snapshot written to %s\n", *snapshot)
		}
		if *dumpSpans {
			printSpans(rec)
		}
		if *spansOut != "" {
			if err := writeSpans(*spansOut, rec); err != nil {
				fmt.Fprintf(os.Stderr, "rups-sim: spans-out: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "span ring written to %s\n", *spansOut)
		}
		if *dumpFlight {
			if *flightDir == "" {
				fmt.Fprintln(os.Stderr, "rups-sim: -dump-flight-on-exit needs -flight-dir")
				os.Exit(2)
			}
			path, err := fl.Dump("exit_dump", 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rups-sim: flight dump: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "flight capsule written to %s\n", path)
		}
	}()

	rc := city.RoadClass(*class)
	sc := sim.DefaultScenario(*seed, rc)
	sc.Radios = *radios
	sc.DistanceM = *distance
	sc.Trucks = *trucks
	sc.FollowerLane = 0
	sc.LeaderLane = *laneGap
	if sc.LeaderLane >= rc.Lanes() {
		sc.LeaderLane = rc.Lanes() - 1
	}

	linked := *loss > 0 || *burst > 0 || *reorder > 0 || *dup > 0 || *corrupt > 0 || *linkSeed != 0
	if linked || *vehicles > 2 {
		faults := link.Params{Seed: *linkSeed, Loss: *loss, Reorder: *reorder, Duplicate: *dup, Corrupt: *corrupt}
		if *burst > 0 {
			faults.BurstEnter, faults.BurstExit = *burst, 0.1
		}
		if faults.Seed == 0 {
			faults.Seed = 1
		}
		pol := core.Staleness{StaleAfterSec: *staleAfter, ExpireAfterSec: *expireAfter}
		runLinkedConvoy(sc, rc, *vehicles, *workers, *interval, faults, pol, *healFrac, slt)
		return
	}

	fmt.Fprintf(os.Stderr, "simulating %s, %d radios, %v m, lanes %d/%d ...\n",
		rc, *radios, *distance, sc.FollowerLane, sc.LeaderLane)
	r := sim.Execute(sc)

	p := core.DefaultParams()
	fmt.Printf("%8s  %9s  %9s  %7s  %7s  %9s  %7s\n",
		"t (s)", "truth (m)", "RUPS (m)", "err (m)", "score", "GPS (m)", "err (m)")
	t0 := r.Follower.Truth.States[0].T
	end := t0 + r.Follower.Truth.Duration()
	resolved, total := 0, 0
	for t := t0 + 20; t <= end; t += *interval {
		q := r.Query(t, p)
		total++
		rupsStr, errStr, scoreStr := "-", "-", "-"
		if q.OK {
			resolved++
			rupsStr = fmt.Sprintf("%.1f", q.Est.Distance)
			errStr = fmt.Sprintf("%.1f", q.RDE)
			scoreStr = fmt.Sprintf("%.2f", q.Est.Score)
		}
		fmt.Printf("%8.1f  %9.1f  %9s  %7s  %7s  %9.1f  %7.1f\n",
			t-t0, q.TruthGap, rupsStr, errStr, scoreStr, q.GPSEst, q.GPSRDE)
	}
	fmt.Fprintf(os.Stderr, "resolved %d/%d queries\n", resolved, total)
}

// runLinkedConvoy streams per-tick pairwise resolutions over the DSRC
// mesh: deltas cross the link (clean, or fault-injected per faults) through
// the reliable sync protocol, and pairs resolve from the link-delivered
// copies under the staleness policy.
func runLinkedConvoy(sc sim.Scenario, rc city.RoadClass, n, workers int, interval float64,
	faults link.Params, pol core.Staleness, healFrac float64, slt *slo.Tracker) {
	clean := faults == link.Params{Seed: faults.Seed}
	desc := "a clean link"
	if !clean {
		desc = fmt.Sprintf("a lossy link (seed %d, loss %.2f, burst %.3f, reorder %.2f)",
			faults.Seed, faults.Loss, faults.BurstEnter, faults.Reorder)
	}
	fmt.Fprintf(os.Stderr, "simulating %d-vehicle convoy on %s, %d radios, %v m, over %s ...\n",
		n, rc, sc.Radios, sc.DistanceM, desc)
	r := sim.ExecuteConvoy(sc, n)
	lc := sim.NewLinkedConvoy(r, faults, v2v.SyncConfig{Seed: faults.Seed}, pol)
	lc.SLO = slt
	e := engine.New(workers)
	defer e.Close()
	p := core.DefaultParams()

	fmt.Printf("%8s  %5s  %9s  %9s  %7s  %7s  %6s\n",
		"t (s)", "pair", "truth (m)", "RUPS (m)", "err (m)", "score", "state")
	t0, t1 := r.TimeSpan()
	healAt := t0 + healFrac*(t1-t0)
	healed := false
	resolved, stale, total := 0, 0, 0
	for t := t0 + 20; t <= t1; t += interval {
		if !healed && !clean && healFrac < 1 && t >= healAt {
			lc.SetFaults(link.Params{Seed: faults.Seed})
			healed = true
			fmt.Fprintf(os.Stderr, "link healed at t=%.1f s\n", t-t0)
		}
		lc.Advance(t)
		results, err := lc.ResolveAllAt(e, t, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rups-sim: %v\n", err)
			os.Exit(1)
		}
		for _, res := range results {
			total++
			truth := r.TruthGapAt(res.A, res.B, t)
			rupsStr, errStr, scoreStr, state := "-", "-", "-", "----"
			if res.OK {
				resolved++
				rupsStr = fmt.Sprintf("%.1f", res.Est.Distance)
				errStr = fmt.Sprintf("%.1f", res.Est.Distance-truth)
				scoreStr = fmt.Sprintf("%.2f", res.Est.Score)
				state = "ok"
				if res.Freshness == core.StaleContext {
					stale++
					state = "stale"
				}
			}
			fmt.Printf("%8.1f  %2d-%-2d  %9.1f  %9s  %7s  %7s  %6s\n",
				t-t0, res.A, res.B, truth, rupsStr, errStr, scoreStr, state)
		}
	}
	fmt.Fprintf(os.Stderr, "resolved %d/%d pair queries (%d stale); final sync lag %d marks\n",
		resolved, total, stale, lc.MaxLag())
	for _, st := range slt.Statuses() {
		fmt.Fprintf(os.Stderr, "slo %-18s good=%-6d bad=%-5d fast_burn=%.2f slow_burn=%.2f breaches=%d\n",
			st.Name, st.GoodTotal, st.BadTotal, st.FastBurn, st.SlowBurn, st.Breaches)
	}
}

// writeSpans serializes the span ring to path in the same JSON envelope
// /debug/spans serves, which is what rups-obs reads back.
func writeSpans(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(struct {
		Total  uint64          `json:"total"`
		Events []obs.SpanEvent `json:"events"`
	}{Total: rec.Total(), Events: rec.Events()})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// printSpans dumps the span ring as a per-trace timeline: each trace is one
// pipeline pass (a vehicle's scan→bind→interpolate leg, an engine exchange,
// or a searcher's resolve with its direction scans).
func printSpans(rec *obs.Recorder) {
	events := rec.Events()
	fmt.Fprintf(os.Stderr, "\nspan timeline (%d events recorded, ring holds %d):\n",
		rec.Total(), len(events))
	var last obs.TraceID
	for _, ev := range events {
		if ev.Trace != last {
			fmt.Fprintf(os.Stderr, "trace %d:\n", ev.Trace)
			last = ev.Trace
		}
		fmt.Fprintf(os.Stderr, "  %-12s arg=%-8d %10.3fms\n",
			ev.Name, ev.Arg, float64(ev.Dur.Microseconds())/1000)
	}
}
