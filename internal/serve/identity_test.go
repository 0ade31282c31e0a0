package serve

import (
	"testing"

	"rups/internal/core"
	"rups/internal/obs"
	"rups/internal/obs/flight"
	"rups/internal/trajectory"
	"rups/internal/v2v"
)

// identityServer builds an unstarted server holding the given vehicles'
// contexts (vehicle i+1 carries trajs[i]) and a connection whose answers
// pile up in its outbox, so tests can drive resolveBatch directly.
func identityServer(t *testing.T, trajs ...*trajectory.Aware) (*Server, *conn) {
	t.Helper()
	sim := NewSimClock(1250)
	s := New(Config{Clock: sim, Workers: 2, Params: testParams()})
	t.Cleanup(s.eng.Close)
	for i, traj := range trajs {
		e, _ := s.tab.attach(uint32(i+1), traj.Width(), nil, sim.Now())
		if traj.Len() == 0 {
			continue
		}
		d, err := v2v.MakeDelta(traj, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, fr := range v2v.DataFrames(d, obs.TraceRef{}, 1) {
			e.mu.Lock()
			e.rx.Offer(fr)
			e.mu.Unlock()
		}
	}
	return s, &conn{s: s, outbox: make(chan []byte, 64)}
}

// ask builds one query from vehicle a to vehicle b.
func ask(c *conn, a, b uint32, deadline float64) *query {
	c.outstanding.Add(1)
	return &query{a: a, b: b, deadline: deadline, admitted: c.s.clock.Now(), c: c}
}

// TestStalenessClassFollowsPairAcrossSlots: a pair re-queried in a batch
// that puts its vehicles at other slots (vehicle 2 is snapshotted first
// because an earlier query names it) keeps the staleness class of its
// first resolve — the engine keys pair state on the vehicle pair, not on
// the slots, so the second resolve records no new transition.
func TestStalenessClassFollowsPairAcrossSlots(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Enable(reg)
	defer obs.Disable()
	ring := flight.NewRing(0, flight.Config{})
	flight.Enable(ring)
	defer flight.Disable()
	s, c := identityServer(t, testConvoy(11, 2, 250, 20, 64)...)
	// The contexts end a second or two before the clock: stale, not expired.
	s.cfg.Staleness = core.Staleness{StaleAfterSec: 1, ExpireAfterSec: 1000}

	s.resolveBatch([]*query{ask(c, 1, 2, 0)}) // slots (0, 1)
	// Vehicle 99 is unknown, so this batch admits vehicle 2 at slot 0 and
	// vehicle 1 at slot 1: the pair resolves at slots (1, 0).
	s.resolveBatch([]*query{ask(c, 2, 99, 0), ask(c, 1, 2, 0)})
	var got []flight.Event
	for _, ev := range ring.Snapshot() {
		if ev.Kind == flight.KindStaleness {
			got = append(got, ev)
		}
	}
	if len(got) != 1 || got[0].A != 1 || got[0].B != 2 ||
		got[0].V1 != int64(core.StaleContext) || got[0].V2 != int64(core.FreshContext) {
		t.Errorf("staleness transitions %+v, want one fresh→stale for pair (1, 2)", got)
	}
	if got := reg.Counter("rups_serve_results_total", "").Value(); got != 3 {
		t.Errorf("%d results sent, want 3", got)
	}
}

// TestFlightEventsNameVehicles: the engine's per-pair flight events carry
// the query's vehicle IDs, so one pair reads as one pair on the timeline
// even when batching lands it at different slots.
func TestFlightEventsNameVehicles(t *testing.T) {
	ring := flight.NewRing(0, flight.Config{})
	flight.Enable(ring)
	defer flight.Disable()
	empty := trajectory.NewAwareWidth(trajectory.Geo{}, 8)
	s, c := identityServer(t, empty, empty, empty)
	late := s.clock.Now() - 1 // dead on arrival: shed at admission

	s.resolveBatch([]*query{ask(c, 1, 2, late)})                     // slots (0, 1)
	s.resolveBatch([]*query{ask(c, 3, 2, late), ask(c, 1, 2, late)}) // slots (2, 1)
	var got [][2]int32
	for _, ev := range ring.Snapshot() {
		if ev.Kind == flight.KindShed {
			got = append(got, [2]int32{ev.A, ev.B})
		}
	}
	want := [][2]int32{{1, 2}, {3, 2}, {1, 2}}
	if len(got) != len(want) {
		t.Fatalf("shed events %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shed events %v, want %v", got, want)
		}
	}
}

// TestResolveBatchSnapshotsOncePerVehicle: a batch snapshots each
// referenced vehicle exactly once, however many of its queries name it —
// admission takes the snapshot as it is rather than copying it again.
func TestResolveBatchSnapshotsOncePerVehicle(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Enable(reg)
	defer obs.Disable()
	empty := trajectory.NewAwareWidth(trajectory.Geo{}, 8)
	s, c := identityServer(t, empty, empty, empty)
	snaps := reg.Counter("rups_trajectory_snapshots_total", "")

	before := snaps.Value()
	s.resolveBatch([]*query{ask(c, 1, 2, 0), ask(c, 2, 3, 0), ask(c, 1, 3, 0), ask(c, 3, 1, 0)})
	if got := snaps.Value() - before; got != 3 {
		t.Errorf("one batch over 3 vehicles took %d snapshots, want 3", got)
	}
}
