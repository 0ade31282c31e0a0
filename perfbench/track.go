package main

import (
	"fmt"
	"math"
	"time"

	"rups/internal/core"
	"rups/internal/sim"
	"rups/internal/trajectory"
)

// trackedVehicle is one vehicle of a serve-track convoy.
type trackedVehicle struct {
	vid    uint32
	mapped *trajectory.Aware // its marks, stamped in the server clock's domain
	cuts   []int             // marks completed by each round of its episode
	sent   int               // marks the server holds (covered by an ACK)
}

// trackEpisode is one convoy's stretch of the fixed round schedule.
type trackEpisode struct {
	first  int // fleet index of the convoy's vehicle 0
	rounds int // rounds the drive supports after the warm-up
	// truth[j][qi] is the ground-truth answer to neighbourQueries' qi-th
	// query at round j.
	truth [][]float64
}

// runServeTrack tracks an 8-vehicle convoy through rups-serve in an open
// loop on a fixed round schedule: each round every vehicle streams its new
// marks in a short session on the rotating stream connection, then every
// vehicle asks for the d_r to its one or two nearest neighbours, the
// queries spread at fixed phases over the round on a separate query
// connection. Writes land beside reads, and the same pairs repeat every
// round.
func runServeTrack(b *bench) error {
	// A round carries 2 s of sim time in 0.25 s of wall time, so a run
	// tracks about two of the three convoys and no single road sets the
	// figures.
	cfg := convoyCfg{convoys: 3, vehicles: 8, distanceM: 1200, warmS: 30, cadenceS: 2}
	roundWall := 0.25 // wall seconds per round (one cadence of sim time)
	if b.o.smoke {
		cfg = convoyCfg{convoys: 1, vehicles: 3, distanceM: 300, warmS: 10, cadenceS: 2}
		roundWall = 0.1
	}
	p := core.DefaultParams()
	srv, err := b.startServer()
	if err != nil {
		return err
	}
	defer srv.Shutdown()
	addr := srv.Addr().String()

	// Episodes follow each other on one schedule fixed in advance (open
	// loop), so every convoy's sim time maps into the server clock before
	// anything streams. The map starts at set-up, so contexts trail the
	// schedule by the set-up time: seconds, inside the 30 s staleness bound.
	scale := roundWall / cfg.cadenceS
	anchor, offset := wallNow(), 0.0
	var fleet []*trackedVehicle
	var episodes []trackEpisode
	var setupWire wireTally
	_, err = b.buildConvoys(cfg, 0x7AC, func(k int, r *sim.ConvoyRun) error {
		t0, t1 := r.TimeSpan()
		simAt := t0 + cfg.warmS
		ep := trackEpisode{first: len(fleet), rounds: int((t1-simAt)/cfg.cadenceS) + 1}
		for j := 0; j < ep.rounds; j++ {
			tau := simAt + float64(j)*cfg.cadenceS
			var truth []float64
			for _, pr := range neighbourQueries(cfg.vehicles) {
				truth = append(truth, r.TruthGapAt(pr[0], pr[1], tau))
			}
			ep.truth = append(ep.truth, truth)
		}
		for _, veh := range r.Vehicles {
			tv := &trackedVehicle{vid: uint32(len(fleet) + 1), mapped: remap(veh.Aware, simAt, anchor+offset, scale)}
			for j := 0; j < ep.rounds; j++ {
				tv.cuts = append(tv.cuts, veh.Aware.PrefixUntil(simAt+float64(j)*cfg.cadenceS).Len())
			}
			if n := tv.cuts[0]; n > 0 {
				if out, err := streamSession(addr, tv.vid, tv.mapped, 0, n, &setupWire); err != nil {
					return fmt.Errorf("set-up stream of vehicle %d (%s): %v", tv.vid, out, err)
				}
				tv.sent = n
			}
			fleet = append(fleet, tv)
		}
		episodes = append(episodes, ep)
		offset += float64(ep.rounds) * roundWall
		return nil
	})
	if err != nil {
		return err
	}

	qc, err := dialQueries(addr, nil)
	if err != nil {
		return err
	}
	stopPoll := make(chan struct{})
	peakCh := b.pollQueueDepth(stopPoll)

	var tm timed
	var qs []*query
	var wire wireTally
	var streamMS, lagMS []float64
	var streamStart []time.Time
	var roundClean []bool
	metres := 0
	R := time.Duration(roundWall * float64(time.Second))
	b.startTimed()
	start := time.Now()
	round := 0
schedule:
	for _, ep := range episodes {
		for j := 0; j < ep.rounds; j++ {
			due := start.Add(time.Duration(round) * R)
			el := due.Sub(start).Seconds()
			if el >= b.o.seconds {
				break schedule
			}
			time.Sleep(time.Until(due))
			traced := b.blockTraced(el)
			b.setTraced(traced)
			streamStart = append(streamStart, time.Now())

			clean := true
			ph := b.span("track.stream_phase", 0)
			for _, tv := range fleet[ep.first : ep.first+cfg.vehicles] {
				have := tv.cuts[j]
				if have <= tv.sent {
					continue
				}
				ss := b.span("client.stream_session", ph.ID())
				s0 := time.Now()
				out, err := streamSession(addr, tv.vid, tv.mapped, tv.sent, have, &wire)
				streamMS = append(streamMS, 1e3*time.Since(s0).Seconds())
				ss.End()
				b.count(out, 1)
				if err != nil {
					b.logf("round %d: stream of vehicle %d failed: %v", round, tv.vid, err)
					clean = false
					continue
				}
				metres += have - tv.sent
				tv.sent = have
			}
			ph.End()
			roundClean = append(roundClean, clean)

			pairs := neighbourQueries(cfg.vehicles)
			for qi, pr := range pairs {
				qdue := due.Add(time.Duration((0.2 + 0.75*float64(qi)/float64(len(pairs))) * float64(R)))
				time.Sleep(time.Until(qdue))
				a, c := fleet[ep.first+pr[0]], fleet[ep.first+pr[1]]
				q := &query{a: int(a.vid) - 1, b: int(c.vid) - 1, due: qdue, traced: traced,
					round: round, ctxA: a.sent, ctxB: c.sent, truth: ep.truth[j][qi]}
				q.span = b.span("client.query", 0)
				qs = append(qs, q)
				qc.send(q)
				lagMS = append(lagMS, 1e3*q.sent.Sub(qdue).Seconds())
			}
			round++
		}
	}
	b.setTraced(false)
	waitDrained([]*queryConn{qc}, 10*time.Second)
	elapsed := time.Since(start).Seconds()
	qc.close()
	close(stopPoll)
	queuePeak := <-peakCh
	b.endTimed()
	stats := srv.Shutdown()
	if b.reg != nil {
		if err := b.registryLayers(); err != nil {
			return err
		}
	}

	for m := range tm.wallS {
		tm.wallS[m] = b.blockWall(elapsed, m == 1)
	}
	b.tallyQueries(qs, start, &tm)
	b.apply(&tm, "query, open loop, from its due time")
	b.e2e["wire_bytes_per_m"] = ratio(float64(wire.bytes.Load()), float64(metres))
	b.reportf("wire_bytes_per_m %.2f B/m (%d bytes in %d DATA frames + HELLO/ACK for %d metres streamed in %d timed rounds)",
		b.e2e["wire_bytes_per_m"], wire.bytes.Load(), wire.frames.Load(), metres, round)
	b.reportf("client.send_lag_ms_p99 %.4f ms (p50 %.4f; how late the open-loop generator sent, n=%d)",
		quantile(lagMS, 0.99), quantile(lagMS, 0.5), len(lagMS))
	b.reportf("client.stream_session_ms_p50 %.4f ms (p90 %.4f, n=%d)", quantile(streamMS, 0.5), quantile(streamMS, 0.9), len(streamMS))
	b.serveLayers(&tm, stats, queuePeak)

	b.fidelity(qs)

	// Gate: answers whose contexts are known exactly — every stream of the
	// round succeeded, and the result arrived before the next round began
	// streaming.
	const gateStride, gateMax = 5, 120
	var sample []*query
	for i, q := range qs {
		if i%gateStride != 0 || !q.answered || !roundClean[q.round] || len(sample) == gateMax {
			continue
		}
		if q.round+1 < len(streamStart) && !q.done.Before(streamStart[q.round+1]) {
			continue
		}
		sample = append(sample, q)
	}
	prefixes := make(map[[2]int]*trajectory.Aware)
	prefix := func(vi, n int) *trajectory.Aware {
		k := [2]int{vi, n}
		if prefixes[k] == nil {
			prefixes[k] = prefixN(fleet[vi].mapped, n)
		}
		return prefixes[k]
	}
	if err := b.queryGate(sample, func(q *query) (*trajectory.Aware, *trajectory.Aware) {
		return prefix(q.a, q.ctxA), prefix(q.b, q.ctxB)
	}, p); err != nil {
		return err
	}
	if b.reg == nil {
		return nil
	}
	// Replay: the first vehicles' streams in round-sized deltas, and the
	// last round's queries on the contexts the server held.
	in := replayInput{now: wallNow(), pol: serverStaleness,
		deltaMarks: max(1, int(math.Round(ratio(float64(metres), float64(len(streamMS))))))}
	for _, tv := range fleet[:min(4, len(fleet))] {
		in.streams = append(in.streams, tv.mapped)
	}
	slot := make(map[int]int)
	for _, q := range qs {
		if q.round != round-1 {
			continue
		}
		for _, vc := range [][2]int{{q.a, q.ctxA}, {q.b, q.ctxB}} {
			if _, ok := slot[vc[0]]; !ok {
				slot[vc[0]] = len(in.contexts)
				in.contexts = append(in.contexts, prefix(vc[0], vc[1]))
			}
		}
		in.pairs = append(in.pairs, [2]int{slot[q.a], slot[q.b]})
	}
	return b.replay(in, p)
}

// neighbourQueries lists each convoy vehicle's queries to its one or two
// nearest neighbours (convoy order is road order): (v, v−1) and (v, v+1).
func neighbourQueries(n int) [][2]int {
	var out [][2]int
	for v := 0; v < n; v++ {
		if v > 0 {
			out = append(out, [2]int{v, v - 1})
		}
		if v < n-1 {
			out = append(out, [2]int{v, v + 1})
		}
	}
	return out
}
