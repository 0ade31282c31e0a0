package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rups/internal/core"
	"rups/internal/noise"
	"rups/internal/sim"
	"rups/internal/trajectory"
)

// coldVehicle is one vehicle of the serve-cold fleet.
type coldVehicle struct {
	ctx  *trajectory.Aware // the context streamed once in set-up
	conv int               // convoy index
	idx  int               // index within the convoy
	// truthTo[j] is the ground-truth distance vehicle j of the same convoy
	// is ahead of this one when the contexts end.
	truthTo []float64
}

// runServeCold queries a static fleet — several convoys on different
// roads, streamed once in set-up — in a closed loop with a fixed number of
// queries outstanding, and never queries a pair twice. Nothing is written
// during timing, and no warm state can help: cold SYN scans, admission and
// queueing do the work. The loop stops early if the fleet's distinct pairs
// run out before the time does.
func runServeCold(b *bench) error {
	cfg := convoyCfg{convoys: 14, vehicles: 8, distanceM: 420}
	// Contexts are capped so the whole fleet fits rups-serve's 64 MiB
	// resident budget (112 × 340 marks × 1568 B ≈ 60 MB): nothing is
	// evicted, and its 6216 pairs outlast the timed region.
	maxMarks := 340
	if b.o.smoke {
		cfg = convoyCfg{convoys: 4, vehicles: 3, distanceM: 300}
	}
	perConn := 4 // outstanding queries per connection; nproc connections
	p := core.DefaultParams()
	srv, err := b.startServer()
	if err != nil {
		return err
	}
	defer srv.Shutdown()
	addr := srv.Addr().String()

	var fleet []*coldVehicle
	var wire wireTally
	var streamMS []float64
	metres := 0
	// Every context ends at one fleet snapshot instant, stamped 30 s into
	// the run on the server's clock: ages stay under the 30 s staleness
	// bound for a run of a minute.
	anchor := wallNow() + serverStaleness.StaleAfterSec
	_, err = b.buildConvoys(cfg, 0xC01D, func(k int, r *sim.ConvoyRun) error {
		_, t1 := r.TimeSpan()
		for v, veh := range r.Vehicles {
			cv := &coldVehicle{ctx: remap(veh.Aware.PrefixUntil(t1).Tail(maxMarks), t1, anchor, 1), conv: k, idx: v}
			for j := range r.Vehicles {
				cv.truthTo = append(cv.truthTo, r.TruthGapAt(v, j, t1))
			}
			vid := uint32(len(fleet) + 1)
			s0 := time.Now()
			if out, err := streamSession(addr, vid, cv.ctx, 0, cv.ctx.Len(), &wire); err != nil {
				return fmt.Errorf("set-up stream of vehicle %d (%s): %v", vid, out, err)
			}
			streamMS = append(streamMS, 1e3*time.Since(s0).Seconds())
			metres += cv.ctx.Len()
			fleet = append(fleet, cv)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.e2e["wire_bytes_per_m"] = ratio(float64(wire.bytes.Load()), float64(metres))
	b.reportf("wire_bytes_per_m %.2f B/m (%d bytes in %d DATA frames + HELLO/ACK for %d metres streamed in set-up)",
		b.e2e["wire_bytes_per_m"], wire.bytes.Load(), wire.frames.Load(), metres)
	b.reportf("client.stream_session_ms_p50 %.4f ms (p90 %.4f, n=%d; whole contexts, in set-up)",
		quantile(streamMS, 0.5), quantile(streamMS, 0.9), len(streamMS))

	// Every unordered pair once, in a seeded order and orientation.
	pairs := make([][2]int, 0, len(fleet)*(len(fleet)-1)/2)
	for _, pr := range allPairs(len(fleet)) {
		if noise.Uniform(b.o.seed, 0xF2, uint64(len(pairs))) < 0.5 {
			pr[0], pr[1] = pr[1], pr[0]
		}
		pairs = append(pairs, pr)
	}
	for i := len(pairs) - 1; i > 0; i-- {
		j := int(noise.Uniform(b.o.seed, 0xF1, uint64(i)) * float64(i+1))
		pairs[i], pairs[j] = pairs[j], pairs[i]
	}

	stopPoll := make(chan struct{})
	peakCh := b.pollQueueDepth(stopPoll)
	qs := make([]*query, len(pairs))
	var cursor atomic.Int64
	var stop atomic.Bool
	issue := func(qc *queryConn) {
		if stop.Load() {
			return
		}
		i := int(cursor.Add(1)) - 1
		if i >= len(pairs) {
			return
		}
		a, c := fleet[pairs[i][0]], fleet[pairs[i][1]]
		q := &query{a: pairs[i][0], b: pairs[i][1], round: -1,
			due: time.Now(), traced: b.traced.Load(), truth: math.NaN()}
		if a.conv == c.conv {
			q.truth = a.truthTo[c.idx]
		}
		q.span = b.span("client.query", 0)
		qs[i] = q
		qc.send(q)
	}
	onDone := func(qc *queryConn, _ *query) { issue(qc) }

	conns := make([]*queryConn, b.nproc)
	for i := range conns {
		if conns[i], err = dialQueries(addr, onDone); err != nil {
			return err
		}
	}
	// A traced run alternates untraced and traced blocks on a timer; each
	// query belongs to the block it was sent in.
	var toggles sync.WaitGroup
	stopToggle := make(chan struct{})
	if b.reg != nil {
		toggles.Add(1)
		go func() {
			defer toggles.Done()
			t := time.NewTicker(time.Duration(b.blockSec * float64(time.Second)))
			defer t.Stop()
			for on := true; ; on = !on {
				select {
				case <-t.C:
					b.setTraced(on)
				case <-stopToggle:
					return
				}
			}
		}()
	}
	b.startTimed()
	start := time.Now()
	for _, qc := range conns {
		for k := 0; k < perConn; k++ {
			issue(qc)
		}
	}
	for time.Since(start).Seconds() < b.o.seconds && int(cursor.Load()) < len(pairs) {
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	waitDrained(conns, 10*time.Second)
	elapsed := time.Since(start).Seconds()
	close(stopToggle)
	toggles.Wait()
	b.setTraced(false)
	for _, qc := range conns {
		qc.close()
	}
	close(stopPoll)
	queuePeak := <-peakCh
	b.endTimed()
	stats := srv.Shutdown()
	if b.reg != nil {
		if err := b.registryLayers(); err != nil {
			return err
		}
	}

	issued := qs[:min(int(cursor.Load()), len(pairs))]
	if len(issued) == len(pairs) {
		b.reportf("note: all %d distinct pairs were queried after %.3f s", len(pairs), elapsed)
	}
	var tm timed
	for m := range tm.wallS {
		tm.wallS[m] = b.blockWall(elapsed, m == 1)
	}
	b.tallyQueries(issued, start, &tm)
	b.apply(&tm, fmt.Sprintf("query, closed loop, %d outstanding", perConn*b.nproc))
	b.serveLayers(&tm, stats, queuePeak)

	same := 0
	for _, q := range issued {
		if !math.IsNaN(q.truth) {
			same++
		}
	}
	b.reportf("same-convoy (resolvable) pair share %.4f (%d of %d queried pairs; %d of all %d pairs)",
		ratio(float64(same), float64(len(issued))), same, len(issued), cfg.convoys*cfg.vehicles*(cfg.vehicles-1)/2, len(pairs))
	b.fidelity(issued)

	const gateStride, gateMax = 5, 150
	var sample []*query
	for i, q := range issued {
		if i%gateStride == 0 && q.answered && len(sample) < gateMax {
			sample = append(sample, q)
		}
	}
	if err := b.queryGate(sample, func(q *query) (*trajectory.Aware, *trajectory.Aware) {
		return fleet[q.a].ctx, fleet[q.b].ctx
	}, p); err != nil {
		return err
	}
	if b.reg == nil {
		return nil
	}
	// Replay: whole-context streams as in set-up, and the first answered
	// queries as one admission batch.
	in := replayInput{now: wallNow(), pol: serverStaleness, deltaMarks: fleet[0].ctx.Len()}
	for _, cv := range fleet[:min(4, len(fleet))] {
		in.streams = append(in.streams, cv.ctx)
	}
	slot := make(map[int]int)
	for _, q := range issued {
		if len(in.pairs) == 8 {
			break
		}
		for _, vi := range []int{q.a, q.b} {
			if _, ok := slot[vi]; !ok {
				slot[vi] = len(in.contexts)
				in.contexts = append(in.contexts, fleet[vi].ctx)
			}
		}
		in.pairs = append(in.pairs, [2]int{slot[q.a], slot[q.b]})
	}
	return b.replay(in, p)
}

// blockWall returns the part of a timed region of the given length spent
// in traced (or untraced) blocks; an untraced run spends all of it
// untraced.
func (b *bench) blockWall(elapsed float64, traced bool) float64 {
	if b.reg == nil {
		if traced {
			return 0
		}
		return elapsed
	}
	w := 0.0
	for i := 0; float64(i)*b.blockSec < elapsed; i++ {
		if (i%2 == 1) == traced {
			w += math.Min(elapsed, float64(i+1)*b.blockSec) - float64(i)*b.blockSec
		}
	}
	return w
}
