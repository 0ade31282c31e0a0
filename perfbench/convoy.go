package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"rups/internal/city"
	"rups/internal/core"
	"rups/internal/engine"
	"rups/internal/link"
	"rups/internal/noise"
	"rups/internal/obs"
	"rups/internal/sim"
	"rups/internal/v2v"
)

// convoyCfg sizes the convoy inputs of a workload.
type convoyCfg struct {
	convoys   int     // independent convoys (one set-up unit each)
	vehicles  int     // vehicles per convoy
	distanceM float64 // drive length
	warmS     float64 // sim seconds of context before the first tick/round
	cadenceS  float64 // sim seconds between ticks/rounds
}

// buildConvoys generates cfg.convoys convoys with sim.ExecuteConvoy on
// 4-lane urban roads (194 scanner-bound, interpolated channels), one
// set-up unit each; perUnit runs after each convoy inside its unit. The
// ExecuteConvoy times feed sim.execute_convoy_s.
func (b *bench) buildConvoys(cfg convoyCfg, salt uint64, perUnit func(k int, r *sim.ConvoyRun) error) ([]*sim.ConvoyRun, error) {
	runs := make([]*sim.ConvoyRun, cfg.convoys)
	var execS []float64
	for k := range runs {
		err := b.setupUnit(func() error {
			sc := sim.DefaultScenario(noise.Hash(b.o.seed, salt, uint64(k)), city.RoadClass(1))
			sc.DistanceM = cfg.distanceM
			sp := b.span("sim.ExecuteConvoy", 0)
			t0 := time.Now()
			runs[k] = sim.ExecuteConvoy(sc, cfg.vehicles)
			execS = append(execS, time.Since(t0).Seconds())
			sp.End()
			if perUnit != nil {
				return perUnit(k, runs[k])
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	b.layer["sim.execute_convoy_s"] = quantile(execS, 0.5)
	b.reportf("sim.execute_convoy_s %.4f s (median of %d convoys × %d vehicles)", b.layer["sim.execute_convoy_s"], cfg.convoys, cfg.vehicles)
	return runs, nil
}

// allPairs enumerates every unordered pair (i < j) of n vehicles in the
// order sim.LinkedConvoy and engine.Batch.ResolveAll use.
func allPairs(n int) [][2]int {
	var out [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// convoyTick is one timed tick's answers, kept for the correctness gate
// and the fidelity metrics after the timed region.
type convoyTick struct {
	convoy int
	t      float64
	res    []engine.Result
	// gate marks a tick sampled for the oracle check; only ticks whose
	// sessions were quiescent after Advance qualify (the delivered copies
	// then equal the senders' prefixes, so the oracle's contexts are
	// known exactly).
	gate bool
}

// runConvoyDSRC is the paper's own setting: 6-vehicle sim.LinkedConvoy
// meshes on a fault-free internal/link, ticked on a fixed sim-time
// cadence; each tick is Advance then ResolveAllAt on one persistent
// engine. Episodes cycle over the run's convoys until the time is up.
func runConvoyDSRC(b *bench) error {
	// A tick every 2 s of sim time (rups-sim's query interval) lets a run
	// cycle through all five convoys, so one road does not set the figures.
	cfg := convoyCfg{convoys: 5, vehicles: 6, distanceM: 1200, warmS: 20, cadenceS: 2}
	if b.o.smoke {
		cfg = convoyCfg{convoys: 1, vehicles: 3, distanceM: 300, warmS: 10, cadenceS: 4}
	}
	const gateEvery = 7
	p := core.DefaultParams()
	runs, err := b.buildConvoys(cfg, 0xC0DE, nil)
	if err != nil {
		return err
	}
	e := engine.New(b.nproc)
	defer e.Close()
	syncCfg := v2v.DefaultSyncConfig()
	// Meshes are built with tracing off: a v2v.Session caches the span
	// recorder at construction, and would keep tracing in untraced blocks.
	newMesh := func(ep int) *sim.LinkedConvoy {
		was := b.traced.Load()
		b.setTraced(false)
		defer b.setTraced(was)
		syncCfg.Seed = noise.Hash(b.o.seed, 0x5C, uint64(ep))
		return sim.NewLinkedConvoy(runs[ep%len(runs)], link.Params{Seed: syncCfg.Seed}, syncCfg, core.Staleness{})
	}

	var tm timed
	var ticks []convoyTick
	var advMS, resMS [2][]float64
	episodes := 0
	b.startTimed()
	start := time.Now()
	last, lastMode := start, 0
	for ep, tickN := 0, 0; ; ep++ {
		lc := newMesh(ep)
		k := ep % len(runs)
		t0, t1 := runs[k].TimeSpan()
		done := false
		for t := t0 + cfg.warmS; t <= t1; t += cfg.cadenceS {
			now := time.Now()
			el := now.Sub(start).Seconds()
			tm.wallS[lastMode] += now.Sub(last).Seconds()
			last = now
			if el >= b.o.seconds {
				done = true
				break
			}
			traced := b.blockTraced(el)
			b.setTraced(traced)
			m := modeIdx(traced)
			lastMode = m

			sp := b.span("convoy.tick", 0)
			sa := b.span("sim.LinkedConvoy.Advance", sp.ID())
			a0 := time.Now()
			lc.Advance(t)
			a1 := time.Now()
			sa.End()
			quiet := lc.Quiescent()
			sr := b.span("sim.LinkedConvoy.ResolveAllAt", sp.ID())
			res, err := lc.ResolveAllAt(e, t, p)
			r1 := time.Now()
			sr.End()
			sp.End()
			if err != nil {
				b.count(outEngine, cfg.vehicles*(cfg.vehicles-1)/2)
				continue
			}
			advMS[m] = append(advMS[m], 1e3*a1.Sub(a0).Seconds())
			resMS[m] = append(resMS[m], 1e3*r1.Sub(a1).Seconds())
			tm.add(traced, a0.Sub(start).Seconds(), 1e3*r1.Sub(a0).Seconds())
			tm.answers[m] += len(res)
			for i := range res {
				res[i].LatencySec = 0 // a timing, not part of the answer
			}
			ticks = append(ticks, convoyTick{convoy: k, t: t, res: res, gate: quiet && tickN%gateEvery == 0})
			tickN++
		}
		if done {
			episodes = ep + 1
			break
		}
	}
	b.setTraced(false)
	b.endTimed()
	if b.reg != nil {
		if err := b.registryLayers(); err != nil {
			return err
		}
	}

	// Outcomes and paper-fidelity metrics over every timed answer.
	var errM []float64
	ok := 0
	for _, tk := range ticks {
		for _, r := range tk.res {
			if !r.OK {
				b.count(outUnresolved, 1)
				continue
			}
			ok++
			b.count(outOK, 1)
			errM = append(errM, math.Abs(r.Est.Distance-runs[tk.convoy].TruthGapAt(r.A, r.B, tk.t)))
		}
	}
	b.apply(&tm, "tick = Advance + ResolveAllAt")
	for m, name := range []string{"untraced", "traced"} {
		if len(advMS[m]) > 0 {
			b.reportf("%s sim.advance_ms_p50 %.4f ms, sim.resolve_all_ms_p50 %.4f ms (tick_p50_ms %.4f, tick_p90_ms %.4f)",
				name, quantile(advMS[m], 0.5), quantile(resMS[m], 0.5), quantile(tm.latMS[m], 0.5), quantile(tm.latMS[m], 0.9))
		}
	}
	b.reportf("dr_err_p50_m %.4f m over %d OK answers; resolved_frac %.4f (%d ticks in %d episodes over %d convoys)",
		quantile(errM, 0.5), ok, ratio(float64(ok), float64(b.attempted())), len(ticks), episodes, len(runs))

	if err := b.convoyGate(runs, ticks, cfg.vehicles, p); err != nil {
		return err
	}
	if err := b.convoyWireBytes(runs[0], cfg, newMesh(0)); err != nil {
		return err
	}
	if b.reg == nil {
		return nil
	}
	// Replay the last convoy's final admission through the hidden stages.
	tk := ticks[len(ticks)-1]
	r := runs[tk.convoy]
	ctx := r.ContextsAt(tk.t)
	in := replayInput{now: tk.t}
	for _, pr := range allPairs(cfg.vehicles) {
		in.contexts = append(in.contexts, ctx[pr[0]], ctx[pr[1]])
		in.pairs = append(in.pairs, [2]int{len(in.contexts) - 2, len(in.contexts) - 1})
	}
	t0, t1 := r.TimeSpan()
	for _, v := range r.Vehicles {
		in.streams = append(in.streams, v.Aware)
	}
	in.deltaMarks = max(1, int(math.Round(float64(r.Vehicles[0].Aware.Len())/(t1-t0)*cfg.cadenceS)))
	return b.replay(in, p)
}

// convoyGate checks the sampled ticks against the cold oracle: the same
// contexts admitted fresh and resolved by engine.Batch.ResolvePairs must
// reflect.DeepEqual the tick's answers.
func (b *bench) convoyGate(runs []*sim.ConvoyRun, ticks []convoyTick, n int, p core.Params) error {
	oracle := engine.New(b.nproc)
	defer oracle.Close()
	pairs := allPairs(n)
	checked := 0
	for _, tk := range ticks {
		if !tk.gate {
			continue
		}
		got := tk.res
		if b.o.wrongAnswer && checked == 0 {
			got = append([]engine.Result(nil), got...)
			got[0].Est.Distance = math.Nextafter(got[0].Est.Distance, math.Inf(1))
		}
		bt, err := oracle.Admit(runs[tk.convoy].ContextsAt(tk.t)...)
		if err != nil {
			return err
		}
		if want := bt.ResolvePairs(pairs, p); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("correctness gate: convoy %d tick t=%.3f differs from the cold ResolvePairs oracle", tk.convoy, tk.t)
		}
		checked++
	}
	if checked == 0 {
		return fmt.Errorf("correctness gate: no quiescent tick was sampled")
	}
	b.reportf("correctness gate: %d sampled ticks reflect.DeepEqual the cold engine.Batch.ResolvePairs oracle", checked)
	return nil
}

// convoyWireBytes replays one convoy's tick schedule through a fresh mesh
// with a private registry to count what went on the air, and derives
// wire_bytes_per_m: link bytes (DATA and ACK frames) per metre delivered
// to a peer copy. The protocol is deterministic on a clean link, so the
// count equals the timed episodes'.
func (b *bench) convoyWireBytes(r *sim.ConvoyRun, cfg convoyCfg, lc *sim.LinkedConvoy) error {
	reg := obs.NewRegistry()
	obs.Enable(reg)
	t0, t1 := r.TimeSpan()
	last := t0
	for t := t0 + cfg.warmS; t <= t1; t += cfg.cadenceS {
		lc.Advance(t)
		last = t
	}
	obs.Disable()
	if !lc.Quiescent() {
		return fmt.Errorf("wire-byte count: mesh not quiescent at the end of the drive")
	}
	p, err := scrape(reg)
	if err != nil {
		return err
	}
	ctx := r.ContextsAt(last)
	metres := 0
	for _, pr := range allPairs(cfg.vehicles) {
		metres += ctx[pr[1]].Len() // pair (i, j): j's trajectory is delivered to i
	}
	bytes := p.val["rups_link_bytes_sent_total"]
	b.e2e["wire_bytes_per_m"] = ratio(bytes, float64(metres))
	b.layer["link.bytes_sent"] = bytes
	b.layer["link.frames_sent"] = p.val["rups_link_frames_sent_total"]
	b.layer["v2v.retransmits"] = p.val["rups_v2v_chunks_retransmitted_total"]
	b.reportf("wire_bytes_per_m %.2f B/m (%.0f link bytes in %.0f frames for %d metres delivered; %.0f retransmitted chunks; paper §V-B: ~182 B/m)",
		b.e2e["wire_bytes_per_m"], bytes, b.layer["link.frames_sent"], metres, b.layer["v2v.retransmits"])
	return nil
}
