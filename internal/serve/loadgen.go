package serve

import (
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"rups/internal/link"
	"rups/internal/noise"
	"rups/internal/obs"
	"rups/internal/trajectory"
	"rups/internal/v2v"
)

// LoadConfig drives RunLoad, the fault-injecting load generator behind
// cmd/rups-load and the soak job. Each synthetic vehicle is one TCP
// connection streaming a deterministic convoy trajectory and issuing pair
// queries; the fault knobs push the server into its refusal paths on
// purpose — the generator's job is to prove the server refuses rather
// than OOMs, deadlocks, or panics.
type LoadConfig struct {
	// Addr is the server address.
	Addr string
	// Vehicles is the fleet size; vehicle IDs are 1..Vehicles.
	Vehicles int
	// Rounds is how many stream/query rounds each vehicle runs.
	Rounds int
	// MarksPerRound is trajectory growth per round (default 4).
	MarksPerRound int
	// Width is the trajectory channel width (default 8 — narrow keeps the
	// soak cheap; the protocol does not care).
	Width int
	// QueriesPerRound is pair queries per vehicle per round (default 1).
	QueriesPerRound int
	// DeadlineRel is the per-query relative deadline in seconds; 0 sends
	// undeadlined queries.
	DeadlineRel float64
	// Seed makes the whole run — trajectories, query targets, fault
	// rolls — replayable.
	Seed uint64
	// Link is the fault model applied to every outbound DATA frame (loss,
	// bursts, reordering, duplication, corruption). The zero value is a
	// clean channel.
	Link link.Params
	// MalformedEvery injects one garbage message per N sent messages per
	// vehicle (0 = off).
	MalformedEvery int
	// StallEvery makes every Nth vehicle a stalled client that never
	// reads server responses, exercising the slow-reader disconnect
	// (0 = off).
	StallEvery int
	// ResetEvery makes every Nth vehicle abruptly close its connection
	// mid-run and reconnect under a bumped epoch, exercising the restart
	// handshake (0 = off).
	ResetEvery int
	// Concurrency bounds simultaneously active vehicles (default
	// min(Vehicles, 64)).
	Concurrency int
	// Clock stamps trajectory marks; it must share the server's time
	// domain (default WallClock).
	Clock Clock
	// PaceSec spaces a vehicle's rounds on the clock; 0 runs flat out
	// (the overload case).
	PaceSec float64
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.MarksPerRound == 0 {
		c.MarksPerRound = 4
	}
	if c.Width == 0 {
		c.Width = 8
	}
	if c.QueriesPerRound == 0 {
		c.QueriesPerRound = 1
	}
	if c.Concurrency == 0 {
		c.Concurrency = 64
		if c.Vehicles < c.Concurrency {
			c.Concurrency = c.Vehicles
		}
	}
	if c.Clock == nil {
		c.Clock = WallClock{}
	}
	return c
}

// LoadStats aggregates one run's outcomes across the fleet.
type LoadStats struct {
	Connected  uint64 // successful dials (reconnects included)
	ConnErrors uint64 // dial failures and writes on dead connections
	Disconnect uint64 // connections the server closed on us mid-run
	Resets     uint64 // deliberate mid-run restarts performed

	QueriesSent   uint64
	ResultsOK     uint64
	ResultsStale  uint64
	Unresolved    uint64
	Shed          uint64
	UnknownVeh    uint64
	Refused       uint64 // by reason, summed; per-reason below
	RefusedQueue  uint64
	RefusedRate   uint64
	RefusedDrain  uint64
	Drains        uint64 // DRAIN notices observed
	AcksSeen      uint64
	MalformedSent uint64
}

type loadCounters struct {
	connected, connErrors, disconnect, resets        atomic.Uint64
	queriesSent, resultsOK, resultsStale             atomic.Uint64
	unresolved, shed, unknownVeh                     atomic.Uint64
	refused, refusedQueue, refusedRate, refusedDrain atomic.Uint64
	drains, acksSeen, malformedSent                  atomic.Uint64
}

func (c *loadCounters) snapshot() LoadStats {
	return LoadStats{
		Connected: c.connected.Load(), ConnErrors: c.connErrors.Load(),
		Disconnect: c.disconnect.Load(), Resets: c.resets.Load(),
		QueriesSent: c.queriesSent.Load(), ResultsOK: c.resultsOK.Load(),
		ResultsStale: c.resultsStale.Load(), Unresolved: c.unresolved.Load(),
		Shed: c.shed.Load(), UnknownVeh: c.unknownVeh.Load(),
		Refused: c.refused.Load(), RefusedQueue: c.refusedQueue.Load(),
		RefusedRate: c.refusedRate.Load(), RefusedDrain: c.refusedDrain.Load(),
		Drains: c.drains.Load(), AcksSeen: c.acksSeen.Load(),
		MalformedSent: c.malformedSent.Load(),
	}
}

// RunLoad replays the configured fleet against the server and blocks
// until every vehicle finishes its rounds, the server drains, or ctx is
// cancelled. The run is deterministic per Seed up to network and
// scheduling timing; all stochastic choices (trajectory shape, query
// targets, fault rolls) derive from it.
func RunLoad(ctx context.Context, cfg LoadConfig) LoadStats {
	cfg = cfg.withDefaults()
	var ctr loadCounters
	peers := peerSet{held: make([]atomic.Bool, cfg.Vehicles), anyPeer: cfg.PaceSec <= 0}
	sem := make(chan struct{}, cfg.Concurrency)
	var wg sync.WaitGroup
	for vid := 1; vid <= cfg.Vehicles; vid++ {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			wg.Wait()
			return ctr.snapshot()
		}
		wg.Add(1)
		go func(vid int) {
			defer func() { <-sem; wg.Done() }()
			runVehicle(ctx, cfg, uint32(vid), &ctr, &peers)
		}(vid)
	}
	wg.Wait()
	return ctr.snapshot()
}

// peerSet is the fleet's shared view of which vehicles the server holds:
// a vehicle joins once it has seen an ACK with a positive cumulative
// count, and stays (the server keeps a context resident after its
// connection closes). Queries pick their peer from it, so a paced clean
// run never asks about a vehicle that has not streamed yet.
type peerSet struct {
	held []atomic.Bool // index vid−1
	// anyPeer lets pick fall back to the whole fleet while no other
	// vehicle is held. A flat-out fleet (PaceSec 0) never waits for the
	// server's ACKs and can finish every round before the first one
	// lands; without the fallback it would send no query at all, and its
	// unknown_vehicle answers are part of the overload it generates.
	anyPeer bool
}

// pick returns the held vehicle other than self that h selects. While
// none is held it returns the fleet vehicle h selects if anyPeer is set,
// else false.
func (ps *peerSet) pick(self uint32, h uint64) (uint32, bool) {
	var cand []uint32
	for i := range ps.held {
		if vid := uint32(i + 1); vid != self && ps.held[i].Load() {
			cand = append(cand, vid)
		}
	}
	if len(cand) > 0 {
		return cand[h%uint64(len(cand))], true
	}
	if !ps.anyPeer {
		return 0, false
	}
	n := uint32(len(ps.held))
	peer := uint32(h%uint64(n)) + 1
	if peer == self {
		peer = peer%n + 1
	}
	return peer, true
}

// convoyField is the shared RSSI landscape every synthetic vehicle drives
// through: vehicle vid's position at mark m is offset by a per-vehicle
// gap, so pairs genuinely align and clean-phase queries resolve to real
// distances instead of coincidences.
func convoyMark(cfg LoadConfig, vid uint32, m int, now float64) (trajectory.GeoMark, []float64) {
	field := noise.Field2D{Seed: cfg.Seed, Scale: 40}
	pos := float64(m) + 15*float64(vid)
	row := make([]float64, cfg.Width)
	for ch := range row {
		row[ch] = -80 + 25*field.At(pos, float64(ch)*7)
	}
	theta := 0.3 * noise.Gaussian(cfg.Seed, uint64(vid), uint64(m), 0xA11)
	return trajectory.GeoMark{Theta: theta, T: now}, row
}

// runVehicle drives one synthetic vehicle through its rounds, reconnecting
// once with a bumped epoch when it is a designated resetter.
func runVehicle(ctx context.Context, cfg LoadConfig, vid uint32, ctr *loadCounters, peers *peerSet) {
	traj := trajectory.NewAwareWidth(trajectory.Geo{}, cfg.Width)
	epoch := uint32(1)
	stalled := cfg.StallEvery > 0 && int(vid)%cfg.StallEvery == 0
	resetAt := -1
	if cfg.ResetEvery > 0 && int(vid)%cfg.ResetEvery == 0 {
		resetAt = cfg.Rounds / 2
	}
	round := 0
	for {
		again, next := vehicleSession(ctx, cfg, vid, epoch, traj, stalled, resetAt, round, ctr, peers)
		if !again {
			return
		}
		round, resetAt = next, -1
		epoch++
		ctr.resets.Add(1)
	}
}

// vehicleSession runs one connection's lifetime. Returns (true, round) if
// the vehicle deliberately reset and should reconnect from round.
func vehicleSession(ctx context.Context, cfg LoadConfig, vid, epoch uint32,
	traj *trajectory.Aware, stalled bool, resetAt, startRound int, ctr *loadCounters, peers *peerSet) (bool, int) {
	cl, err := Dial(cfg.Addr)
	if err != nil {
		ctr.connErrors.Add(1)
		return false, 0
	}
	ctr.connected.Add(1)
	defer cl.Close()
	if err := cl.Hello(vid, epoch, cfg.Width); err != nil {
		ctr.connErrors.Add(1)
		return false, 0
	}

	// acked tracks the server's cumulative ack under this epoch; the
	// sender retransmits everything above it each round (a crude but
	// sufficient go-back-all).
	var acked atomic.Int64
	// responded counts RESULT/REFUSE messages seen; the session waits at
	// the end until it matches the queries that actually reached the wire,
	// so outcomes are counted before the connection closes.
	var responded atomic.Int64
	notify := make(chan struct{}, 1)
	drained := make(chan struct{})
	var drainOnce sync.Once
	readerDone := make(chan struct{})
	if stalled {
		//lint:ignore chanclose the stalled branch and the reader goroutine are mutually exclusive; exactly one site ever closes
		close(readerDone)
	} else {
		go func() {
			//lint:ignore chanclose the stalled branch and the reader goroutine are mutually exclusive; exactly one site ever closes
			defer close(readerDone)
			for {
				m, err := cl.ReadMsg()
				if err != nil {
					return
				}
				switch m.Kind {
				case MsgAck:
					ctr.acksSeen.Add(1)
					if m.AckEpoch == epoch {
						acked.Store(int64(m.AckCum))
					}
					if m.AckCum > 0 {
						peers.held[vid-1].Store(true)
					}
				case MsgResult:
					switch m.Status {
					case StatusOK:
						ctr.resultsOK.Add(1)
						if m.Stale {
							ctr.resultsStale.Add(1)
						}
					case StatusShed:
						ctr.shed.Add(1)
					case StatusUnknownVehicle:
						ctr.unknownVeh.Add(1)
					default:
						ctr.unresolved.Add(1)
					}
					responded.Add(1)
					select {
					case notify <- struct{}{}:
					default:
					}
				case MsgRefuse:
					ctr.refused.Add(1)
					switch m.Reason {
					case RefuseQueueFull:
						ctr.refusedQueue.Add(1)
					case RefuseRate:
						ctr.refusedRate.Add(1)
					case RefuseDraining:
						ctr.refusedDrain.Add(1)
					}
					responded.Add(1)
					select {
					case notify <- struct{}{}:
					default:
					}
				case MsgDrain:
					ctr.drains.Add(1)
					drainOnce.Do(func() { close(drained) })
				}
			}
		}()
	}

	// Epoch restarts resync from mark 0: everything resident at the
	// server belongs to the dead incarnation.
	if epoch > 1 {
		acked.Store(0)
	} else {
		acked.Store(int64(traj.Len()))
	}

	ch := link.New(cfg.Link, uint64(vid))
	msgN, qid := 0, uint32(0)
	// expected counts queries that actually reached the wire — the server
	// owes each exactly one RESULT or REFUSE (or a disconnect).
	expected := int64(0)
	var tick <-chan struct{}
	stopTick := func() {}
	if cfg.PaceSec > 0 {
		tick, stopTick = cfg.Clock.Tick(cfg.PaceSec)
	}
	defer stopTick()

	// sendRaw writes b, occasionally substituting garbage when malformed
	// injection is on. Returns (delivered, connAlive): delivered reports
	// whether b itself went out (false when a garbage message took its
	// slot), which the query path uses to know a response is owed.
	sendRaw := func(b []byte) (bool, bool) {
		msgN++
		if cfg.MalformedEvery > 0 && msgN%cfg.MalformedEvery == 0 {
			g := make([]byte, 16)
			binary.LittleEndian.PutUint64(g, noise.Hash(cfg.Seed, uint64(vid), uint64(msgN)))
			binary.LittleEndian.PutUint64(g[8:], noise.Hash(cfg.Seed, uint64(msgN), uint64(vid)))
			ctr.malformedSent.Add(1)
			if cl.SendRaw(g) != nil {
				ctr.disconnect.Add(1)
				return false, false
			}
			return false, true
		}
		if cl.SendRaw(b) != nil {
			ctr.disconnect.Add(1)
			return false, false
		}
		return true, true
	}

	for round := startRound; round < cfg.Rounds; round++ {
		select {
		case <-ctx.Done():
			return false, 0
		case <-drained:
			return false, 0
		case <-readerDone:
			if !stalled {
				// Server closed on us (slow-reader kick, eviction kick,
				// or shutdown teardown).
				ctr.disconnect.Add(1)
				return false, 0
			}
		default:
		}
		if tick != nil {
			select {
			case <-tick:
			case <-ctx.Done():
				return false, 0
			}
		}
		now := cfg.Clock.Now()
		for m := 0; m < cfg.MarksPerRound; m++ {
			mark, row := convoyMark(cfg, vid, traj.Len(), now)
			traj.Append(mark, row)
		}
		// Stream the unacked suffix through the faulty link; deliverable
		// frames (delayed, reordered, possibly corrupted) go to the wire.
		from := int(acked.Load())
		if from < traj.Len() {
			if d, err := v2v.MakeDelta(traj, from); err == nil {
				for _, fr := range v2v.DataFrames(d, obs.TraceRef{}, epoch) {
					//lint:ignore errflow oversize frames cannot happen below the MTU
					_ = ch.Send(round, fr)
				}
			}
		}
		for _, fr := range ch.Receive(round) {
			if _, ok := sendRaw(fr); !ok {
				return false, 0
			}
		}
		for q := 0; q < cfg.QueriesPerRound; q++ {
			peer, ok := peers.pick(vid, noise.Hash(cfg.Seed, uint64(vid), uint64(round), uint64(q)))
			if !ok {
				break
			}
			qid++
			ctr.queriesSent.Add(1)
			delivered, ok := sendRaw(queryFrame(qid, vid, peer, cfg.DeadlineRel))
			if !ok {
				return false, 0
			}
			if delivered {
				expected++
			}
		}
		if resetAt >= 0 && round >= resetAt {
			// Abrupt restart: no goodbye, a fresh connection, a bumped
			// epoch. The server must discard the dead incarnation.
			return true, round + 1
		}
	}
	// Drain link-delayed frames so the final marks usually land.
	for r := cfg.Rounds; r < cfg.Rounds+4; r++ {
		for _, fr := range ch.Receive(r) {
			if _, ok := sendRaw(fr); !ok {
				return false, 0
			}
		}
	}
	// Wait for every owed response before closing, else the outcomes of
	// this session's queries are lost to the teardown race. The server
	// answers every query it parses (RESULT or REFUSE), so this terminates:
	// either the count arrives or the server closes on us (readerDone).
	if !stalled {
		for responded.Load() < expected {
			select {
			case <-notify:
			case <-readerDone:
				return false, 0
			case <-ctx.Done():
				return false, 0
			}
		}
	}
	return false, 0
}
