package sim

import (
	"fmt"
	"math"

	"rups/internal/core"
	"rups/internal/engine"
	"rups/internal/link"
	"rups/internal/obs/slo"
	"rups/internal/v2v"
)

// LinkedConvoy overlays a fault-injected DSRC mesh on an executed convoy:
// every unordered vehicle pair (i < j) gets a reliable sync session
// carrying j's trajectory to i over its own data/ack channel pair, all
// under one link.Params fault model. The resolver for pair (i, j) is
// vehicle i, answering from its own live context and its link-delivered
// copy of j — the engine only ever admits what the channel actually
// delivered, which is the whole point: a dropped delta no longer
// teleports.
//
// Advance is tick-driven and synchronous (no goroutines): each wall tick
// of sim time buys elapsed/v2v.PacketRTT protocol rounds, with an early
// exit once every session is quiescent. Runs are deterministic per fault
// seed.
type LinkedConvoy struct {
	Run *ConvoyRun
	// Policy is the staleness policy applied at resolution
	// (zero = disabled).
	Policy core.Staleness
	// SLO, when set, is fed one observation per pair per ResolveAllAt
	// (availability, freshness, resolve latency) and evaluated at each
	// resolve time, so burn rates track sim time, not wall time.
	SLO *slo.Tracker

	links []*pairLink
	round int
	lastT float64
}

// pairLink is one unordered pair's sync state: vehicle peer streams to
// vehicle resolver.
type pairLink struct {
	resolver, peer int
	data, ack      *link.Channel
	sess           *v2v.Session
}

// NewLinkedConvoy builds the mesh. Channel salts derive from the pair
// indexes, so every pair sees independent fault draws from the one seed in
// faults.Seed.
func NewLinkedConvoy(run *ConvoyRun, faults link.Params, sync v2v.SyncConfig, pol core.Staleness) *LinkedConvoy {
	n := len(run.Vehicles)
	lc := &LinkedConvoy{Run: run, Policy: pol}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			salt := uint64(i*n+j) * 2
			data := link.New(faults, salt)
			ack := link.New(faults, salt+1)
			sess := v2v.NewSession(run.Vehicles[j].Aware, data, ack, sync)
			sess.SetPeers(j, i) // peer j streams to resolver i
			lc.links = append(lc.links, &pairLink{
				resolver: i, peer: j,
				data: data, ack: ack,
				sess: sess,
			})
		}
	}
	// Protocol time starts at the convoy's common start, not at zero:
	// nothing can have been exchanged before both vehicles exist.
	lc.lastT, _ = run.TimeSpan()
	return lc
}

// SetFaults swaps the fault model on every channel — the chaos scenarios'
// mid-run outage/heal knob. In-flight frames are kept.
func (lc *LinkedConvoy) SetFaults(p link.Params) {
	for _, pl := range lc.links {
		pl.data.SetParams(p)
		pl.ack.SetParams(p)
	}
}

// Advance runs the sync protocol up to sim time t: the elapsed interval
// buys elapsed/PacketRTT rounds (at least one), shared by all sessions in
// lockstep, stopping early once everything is quiescent. Also records
// every pair's copy staleness at t.
func (lc *LinkedConvoy) Advance(t float64) {
	if t < lc.lastT {
		panic(fmt.Sprintf("sim: linked convoy advanced backwards: %v < %v", t, lc.lastT))
	}
	budget := int((t - lc.lastT) / v2v.PacketRTT)
	if budget < 1 {
		budget = 1
	}
	lc.lastT = t
	for b := 0; b < budget; b++ {
		lc.round++
		quiet := true
		for _, pl := range lc.links {
			pl.sess.Step(lc.round, t)
			if !pl.sess.Quiescent() {
				quiet = false
			}
		}
		if quiet {
			break
		}
	}
	for _, pl := range lc.links {
		pl.sess.ObserveCopyAge(t)
	}
}

// Quiescent reports whether every pair's session has fully delivered the
// trajectory visible at the last Advance.
func (lc *LinkedConvoy) Quiescent() bool {
	for _, pl := range lc.links {
		if !pl.sess.Quiescent() {
			return false
		}
	}
	return true
}

// MaxLag returns the largest per-pair backlog (marks recorded by a peer
// but not yet delivered to its resolver) — a convoy-wide sync-health
// summary for logs and tests.
func (lc *LinkedConvoy) MaxLag() int {
	worst := 0
	for _, pl := range lc.links {
		if l := pl.sess.Lag(); l > worst {
			worst = l
		}
	}
	return worst
}

// Usage returns what every channel of the mesh has carried so far, data
// and ack directions together: the convoy's load on its one shared DSRC
// channel (see link.Usage.Airtime).
func (lc *LinkedConvoy) Usage() link.Usage {
	var u link.Usage
	for _, pl := range lc.links {
		u = u.Plus(pl.data.Usage()).Plus(pl.ack.Usage())
	}
	return u
}

// ResolveAllAt answers every pairwise query at time t from link-delivered
// context under the convoy's staleness policy. One admission holds each
// context once: slot i is vehicle i's own prefix at t, followed by every
// pair's synced copy, so a tick snapshots N + L contexts (N vehicles,
// L pairs) and pair (i, j) resolves slot i against j's copy at i. Results
// carry vehicle indexes (A = resolver i, B = peer j) in (i < j)
// enumeration order — with a clean link and quiescent sessions they equal
// the cold resolution of the same contexts admitted directly.
//
// The SLO, when set, counts a pair against pair_availability only when
// resolution failed it (expired context or shed work): a pair whose
// contexts simply share no SYN is an answer, not an outage.
func (lc *LinkedConvoy) ResolveAllAt(e *engine.Engine, t float64, p core.Params) ([]engine.Result, error) {
	trajs := lc.Run.ContextsAt(t)
	qs := make([]engine.Query, len(lc.links))
	for k, pl := range lc.links {
		trajs = append(trajs, pl.sess.Copy())
		// Each pair resolves under the trace its last admitted chunk
		// carried, so the resolve spans stitch onto the peer's
		// send→reassemble→admit chain: one causal trace per delivered
		// update, crossing the link.
		qs[k] = engine.Query{A: pl.resolver, B: len(trajs) - 1,
			Pair: engine.PairID{uint32(pl.resolver), uint32(pl.peer)},
			Ref:  pl.sess.TraceRef()}
	}
	b, err := e.Admit(trajs...)
	if err != nil {
		return nil, err
	}
	res := b.Resolve(qs, p, t, lc.Policy)
	tel := simTel.Get()
	avail := lc.SLO.Index("pair_availability")
	fresh := lc.SLO.Index("context_freshness")
	lat := lc.SLO.Index("resolve_latency")
	for k := range res {
		res[k].A = lc.links[k].resolver
		res[k].B = lc.links[k].peer
		lc.SLO.Observe(avail, !res[k].Shed && res[k].Freshness != core.ExpiredContext, t)
		if res[k].OK {
			lc.SLO.Observe(fresh, res[k].Freshness == core.FreshContext, t)
			if res[k].LatencySec > 0 {
				lc.SLO.ObserveLatency(lat, res[k].LatencySec, t)
			}
		}
		if tel != nil {
			if !res[k].OK {
				tel.unresolved.Inc()
				continue
			}
			tel.resolved.Inc()
			tel.pairError.Observe(math.Abs(res[k].Est.Distance - lc.Run.TruthGapAt(res[k].A, res[k].B, t)))
		}
	}
	if lc.SLO != nil {
		lc.SLO.Evaluate(t)
	}
	return res, nil
}
