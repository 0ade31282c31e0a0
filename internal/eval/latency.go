package eval

// The §V cost model experiments: computation time of the SYN search
// (§V-A), communication time of context exchange (§V-B), and the
// incremental-tracking scalability arithmetic. Every communication figure
// is measured on the live exchange path: a v2v.Session streaming the
// trajectory codec over link channels, which count the frames, bytes and
// airtime they carried.

import (
	"fmt"
	"math"
	"time"

	"rups/internal/city"
	"rups/internal/core"
	"rups/internal/link"
	"rups/internal/sim"
	"rups/internal/trajectory"
	"rups/internal/v2v"
)

// maxSyncRounds bounds a single exchange: 400 s of protocol time, far past
// anything a converging session needs even at 30 % loss.
const maxSyncRounds = 100_000

// syncPair is one direction of the live trajectory exchange: a session
// streaming src over its own data and ack channels, stepped on its own
// round clock.
type syncPair struct {
	sess      *v2v.Session
	data, ack *link.Channel
	round     int
}

func newSyncPair(src *trajectory.Aware, p link.Params) *syncPair {
	data, ack := link.New(p, 0), link.New(p, 1)
	return &syncPair{sess: v2v.NewSession(src, data, ack, v2v.SyncConfig{Seed: p.Seed}), data: data, ack: ack}
}

// syncUntil makes the marks completed by now visible and steps the session
// until it is quiescent — everything sent, delivered and acked — or
// maxRounds have passed. It returns the rounds it stepped.
func (s *syncPair) syncUntil(now float64, maxRounds int) int {
	for n := 1; ; n++ {
		s.round++
		s.sess.Step(s.round, now)
		if s.sess.Quiescent() || n == maxRounds {
			return n
		}
	}
}

// usage returns both directions' usage.
func (s *syncPair) usage() link.Usage { return s.data.Usage().Plus(s.ack.Usage()) }

// since returns the usage accrued after before was read.
func since(now, before link.Usage) link.Usage {
	return link.Usage{Frames: now.Frames - before.Frames, Bytes: now.Bytes - before.Bytes}
}

// kmExchange is what shipping a one-kilometre context took on the live
// path, and then a two-metre tracking update on top of it.
type kmExchange struct {
	data        link.Usage // the context's DATA frames, retransmissions included
	air         float64    // seconds of airtime, data and acks
	rounds      int        // protocol rounds until the copy was complete and acked
	deltaRounds int        // rounds for the two-metre update
}

// exchangeKm streams the first 1000 marks of a (which needs 1002) over
// channels with fault model p, then the next two.
func exchangeKm(a *trajectory.Aware, p link.Params) kmExchange {
	sp := newSyncPair(a, p)
	var x kmExchange
	x.rounds = sp.syncUntil(a.Geo.Marks[999].T, maxSyncRounds)
	x.data, x.air = sp.data.Usage(), sp.usage().Airtime()
	x.deltaRounds = sp.syncUntil(a.Geo.Marks[1001].T, maxSyncRounds)
	return x
}

// Latency regenerates the §V numbers: the O(mwk) SYN search cost on a
// 1000 m context with a 45×(85-100) m window, and the cost of shipping a
// 1 km context over the live sync path.
func Latency(o Options) *Table {
	sc := sim.DefaultScenario(o.Seed+1500, city.FourLaneUrban)
	sc.DistanceM = 1100
	r := sim.Execute(sc)
	a := r.Follower.Aware
	b := r.Leader.Aware

	p := core.DefaultParams()
	reps := o.n(20, 3)
	var searchTime time.Duration
	found := 0
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, ok := core.FindSYN(a, b, p); ok {
			found++
		}
	}
	searchTime = time.Since(start) / time.Duration(reps)

	x := exchangeKm(a, link.Params{Seed: o.Seed})

	t := &Table{
		ID:     "latency",
		Title:  "Computation and communication cost (§V)",
		Header: []string{"quantity", "measured", "paper"},
	}
	t.AddRow("SYN search, 1 km context, 45ch × 85 m window",
		fmt.Sprintf("%.2f ms", float64(searchTime.Microseconds())/1000), "~1.2 ms (i7-2640M)")
	t.AddRow("1 km context size", fmt.Sprintf("%d KB", x.data.Bytes/1024), "~182 KB")
	t.AddRow("WSM packets for 1 km context", fmt.Sprintf("%d", x.data.Frames), "~130")
	t.AddRow("context exchange time", fmt.Sprintf("%.2f s", float64(x.rounds)*v2v.PacketRTT), "~0.52 s")
	t.AddRow("channel air time, data and acks", fmt.Sprintf("%.2f s", x.air), "-")
	t.AddRow("SYN searches that found a point", fmt.Sprintf("%d/%d", found, reps), "-")
	t.Note("the search is O(m·w·k); absolute times differ with hardware, the compute ≪ communication relation is the claim")
	t.Note("the context travels as delta-coded sync chunks (8 marks each, in DATA frames with their headers); the exchange time counts protocol rounds of %.0f ms with 8 chunks in flight, which do not serialize frames, so on one shared channel the air time bounds it from below", 1000*v2v.PacketRTT)
	return t
}

// Scalability regenerates the §V-B incremental-tracking arithmetic: a
// 10 Hz tracking application streams small deltas once the context is
// held, instead of exchanging the full context per query.
func Scalability(o Options) *Table {
	sc := sim.DefaultScenario(o.Seed+1600, city.FourLaneUrban)
	sc.DistanceM = 1100
	r := sim.Execute(sc)
	a := r.Follower.Aware

	// The full exchange ships the whole context at once. The tracking
	// session holds everything recorded before the last 30 s, then streams
	// 30 s of 10 Hz updates, each tick bounded by its 0.1 s of protocol
	// rounds.
	fsp := newSyncPair(a, link.Params{Seed: o.Seed + 1})
	fsp.syncUntil(math.Inf(1), maxSyncRounds)
	full, fullAll := fsp.data.Usage(), fsp.usage()

	const ticks = 300
	_, tEnd := a.TimeSpan()
	tStart := tEnd - ticks*0.1
	sp := newSyncPair(a, link.Params{Seed: o.Seed + 2})
	sp.syncUntil(tStart, maxSyncRounds)
	held, heldAll := sp.data.Usage(), sp.usage()
	for i := 1; i <= ticks; i++ {
		sp.syncUntil(tStart+float64(i)*0.1, int(0.1/v2v.PacketRTT))
	}
	delta, deltaAll := since(sp.data.Usage(), held), since(sp.usage(), heldAll)

	t := &Table{
		ID:     "scalability",
		Title:  "Full context exchange vs incremental tracking updates (§V-B)",
		Header: []string{"quantity", "full exchange", "30 s of 10 Hz deltas", "per tick"},
	}
	t.AddRow("bytes", fmt.Sprintf("%d", full.Bytes),
		fmt.Sprintf("%d", delta.Bytes), fmt.Sprintf("%d", delta.Bytes/ticks))
	t.AddRow("WSM packets", fmt.Sprintf("%d", full.Frames),
		fmt.Sprintf("%d", delta.Frames), f2(float64(delta.Frames)/ticks))
	t.AddRow("air time (s)", f2(fullAll.Airtime()), f2(deltaAll.Airtime()),
		fmt.Sprintf("%.4f", deltaAll.Airtime()/ticks))
	t.Note("transferring the whole context per 0.1 s query is infeasible (%.2f s of air > 0.1 s); the deltas are", fullAll.Airtime())
	t.Note("a tick's 1–2 new marks travel as one chunk, which carries every channel's first cell raw, so a delta costs more per metre than the bulk exchange")
	return t
}

// ByID returns the experiment runner for an id, or nil.
func ByID(id string) func(Options) *Table {
	switch id {
	case "fig1":
		return Fig1
	case "fig2":
		return Fig2
	case "fig3":
		return Fig3
	case "fig4":
		return Fig4
	case "fig9":
		return Fig9
	case "fig10":
		return Fig10
	case "fig11":
		return Fig11
	case "fig12":
		return Fig12
	case "latency":
		return Latency
	case "scalability":
		return Scalability
	case "ablations":
		return Ablations
	case "multiband":
		return Multiband
	case "odometry":
		return Odometry
	case "platoon":
		return PlatoonScale
	case "sensitivity":
		return Sensitivity
	case "traffic":
		return Traffic
	case "linkloss":
		return LinkLoss
	case "turns":
		return Turns
	default:
		return nil
	}
}

// IDs lists the experiment ids in paper order.
func IDs() []string {
	return []string{"fig1", "fig2", "fig3", "fig4", "fig9", "fig10",
		"fig11", "fig12", "latency", "scalability", "platoon", "ablations", "sensitivity", "multiband", "odometry",
		"traffic", "linkloss", "turns"}
}
