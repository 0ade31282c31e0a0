package serve

import (
	"context"
	"net"
	"sync"
	"testing"

	"rups/internal/core"
	"rups/internal/link"
	"rups/internal/obs"
)

// TestShutdownDrainGracefully is the SIGTERM-path regression test (run
// under -race): Shutdown racing live clients must answer or refuse every
// query — no hangs, no panics, no silent drops — notify connections with
// DRAIN, flush outboxes, and leave the server fully torn down.
func TestShutdownDrainGracefully(t *testing.T) {
	obs.Enable(obs.NewRegistry())
	defer obs.Disable()

	sim := NewSimClock(1250)
	s := New(Config{
		Addr: "127.0.0.1:0", Clock: sim, Workers: 2, Params: testParams(),
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	tel := stel()
	drainsBefore := tel.drains.Value()

	const clients = 4
	const queriesEach = 25
	var wg sync.WaitGroup
	var accounted, disconnects int64
	var mu sync.Mutex
	for ci := 0; ci < clients; ci++ {
		cl, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func(cl *Client, ci int) {
			defer wg.Done()
			for q := 0; q < queriesEach; q++ {
				// Unknown vehicles: answered instantly, which keeps the
				// accounting exact without needing streamed context.
				if cl.Query(uint32(q+1), uint32(ci*100+1), uint32(ci*100+2), 0) != nil {
					return
				}
			}
		}(cl, ci)
		go func(cl *Client) {
			defer wg.Done()
			defer cl.Close()
			n := int64(0)
			for {
				m, err := cl.ReadMsg()
				if err != nil {
					mu.Lock()
					accounted += n
					disconnects++
					mu.Unlock()
					return
				}
				if m.Kind == MsgResult || m.Kind == MsgRefuse {
					n++
				}
			}
		}(cl)
	}

	done := make(chan DrainStats, 1)
	go func() { done <- s.Shutdown() }()
	stats := <-done
	wg.Wait()

	if got := tel.drains.Value(); got != drainsBefore+1 {
		t.Fatalf("drains %d, want %d", got, drainsBefore+1)
	}
	// Every query got exactly one of: RESULT, REFUSE, or a closed
	// connection before the send — never more responses than queries,
	// never a hang (reaching here at all proves the latter).
	if accounted > clients*queriesEach {
		t.Fatalf("%d responses for at most %d queries", accounted, clients*queriesEach)
	}
	if disconnects != clients {
		t.Fatalf("%d reader exits, want %d", disconnects, clients)
	}

	// The listener is down: new connections fail.
	if _, err := Dial(s.Addr().String()); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
	// Shutdown is idempotent and still reports the drain snapshot.
	if again := s.Shutdown(); again.ResidentVehicles != stats.ResidentVehicles {
		t.Fatalf("second Shutdown diverged: %+v vs %+v", again, stats)
	}
}

// TestShutdownFlushesAdmittedQueries pins the drain guarantee precisely:
// queries admitted before the drain began are answered during it, counted
// by the drained-queries metric, and their RESULT frames reach the client
// before the connection closes.
func TestShutdownFlushesAdmittedQueries(t *testing.T) {
	obs.Enable(obs.NewRegistry())
	defer obs.Disable()

	sim := NewSimClock(1250)
	s := New(Config{Clock: sim, Workers: 1, Params: testParams(), QueueCap: 8})
	// No Start: admit queries with no resolver running, so they are
	// provably queued when the drain begins.
	srvNC, cliNC := net.Pipe()
	c := &conn{s: s, nc: srvNC, outbox: make(chan []byte, 8)}
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	go c.writeLoop()

	// net.Pipe is unbuffered, so the client must read concurrently or the
	// drain's flush would block on the first write.
	peer := NewClient(cliNC)
	msgs := make(chan Msg, 16)
	go func() {
		defer close(msgs)
		for {
			m, err := peer.ReadMsg()
			if err != nil {
				return
			}
			msgs <- m
		}
	}()

	const admitted = 3
	for i := 1; i <= admitted; i++ {
		s.admitQuery(&query{qid: uint32(i), a: 900, b: 901, admitted: sim.Now(), c: c})
	}
	flushedBefore := stel().drainedQueries.Value()

	// Drain: the resolver starts, finds the backlog, answers it, exits.
	go s.resolveLoop()
	go s.sweepLoop()
	stats := s.Shutdown()

	got := map[uint32]bool{}
	sawDrain := false
	for m := range msgs {
		switch m.Kind {
		case MsgDrain:
			sawDrain = true
		case MsgResult:
			got[m.QID] = true
		default:
			t.Fatalf("unexpected message during drain: %+v", m)
		}
	}
	for i := 1; i <= admitted; i++ {
		if !got[uint32(i)] {
			t.Fatalf("qid %d never answered during drain (got %v)", i, got)
		}
	}
	if !sawDrain {
		t.Fatal("client never saw the DRAIN notice")
	}
	if stats.Flushed != flushedBefore+admitted {
		t.Fatalf("drain stats flushed %d, want %d", stats.Flushed, flushedBefore+admitted)
	}
}

// TestLoadGeneratorQueriesHeldPeers: on a clean link every query names a
// peer the server already holds, so no query is answered unknown_vehicle.
func TestLoadGeneratorQueriesHeldPeers(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0", Workers: 2, Params: testParams()})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	stats := RunLoad(context.Background(), LoadConfig{
		Addr:     s.Addr().String(),
		Vehicles: 12,
		Rounds:   10,
		Seed:     3,
		PaceSec:  0.02,
		// Fewer slots than vehicles: the first wave queries while the
		// rest of the fleet has not connected yet.
		Concurrency: 4,
	})
	s.Shutdown()
	if stats.QueriesSent == 0 || stats.ResultsOK+stats.Unresolved == 0 {
		t.Fatalf("clean fleet sent or answered no query: %+v", stats)
	}
	if stats.UnknownVeh != 0 {
		t.Fatalf("%d of %d clean queries named a vehicle the server does not hold: %+v",
			stats.UnknownVeh, stats.QueriesSent, stats)
	}
}

// TestLoadGeneratorAgainstFaults runs a miniature soak in-process: a
// fleet streaming through a lossy, bursty, corrupting link, with stalled
// clients, malformed injection, and mid-run epoch resets, against a
// server with tight bounds. The assertions are the robustness contract:
// the server answers what it can, refuses what it cannot, kicks what
// misbehaves, and shuts down cleanly afterwards. Run under -race this is
// the package's main concurrency check.
func TestLoadGeneratorAgainstFaults(t *testing.T) {
	obs.Enable(obs.NewRegistry())
	defer obs.Disable()

	s := New(Config{
		Addr:    "127.0.0.1:0",
		Workers: 2,
		Params:  testParams(),
		// Deliberately tight: force refusal paths under the fleet. The
		// budget holds 8 of the fleet's 40 width-8 vehicles at the 96
		// marks each streams, so eviction must engage.
		QueueCap:       16,
		PerConnQueries: 4,
		MemBudgetBytes: 8 * residentBytes(96, 8),
		OutboxCap:      32,
		Staleness:      core.Staleness{StaleAfterSec: 30, ExpireAfterSec: 150},
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	tel := stel()
	evBefore := tel.evictions.Value()
	slowBefore := tel.slowDisconnects.Value()

	stats := RunLoad(context.Background(), LoadConfig{
		Addr:            s.Addr().String(),
		Vehicles:        40,
		Rounds:          16,
		MarksPerRound:   6,
		Width:           8,
		QueriesPerRound: 2,
		Seed:            7,
		Link: link.Params{
			Seed: 7, Loss: 0.1, BurstEnter: 0.02, BurstExit: 0.3,
			Reorder: 0.1, Duplicate: 0.05, Corrupt: 0.05,
		},
		MalformedEvery: 9,
		StallEvery:     10,
		ResetEvery:     7,
	})
	s.Shutdown()

	if stats.Connected == 0 || stats.QueriesSent == 0 {
		t.Fatalf("load generator did not run: %+v", stats)
	}
	answered := stats.ResultsOK + stats.Unresolved + stats.Shed + stats.UnknownVeh
	if answered+stats.Refused == 0 {
		t.Fatalf("no query was ever answered or refused: %+v", stats)
	}
	if stats.MalformedSent == 0 || stats.Resets == 0 {
		t.Fatalf("fault injection did not engage: %+v", stats)
	}
	if tel.malformed.Value() == 0 {
		t.Fatal("server never counted a malformed message under corruption")
	}
	if tel.evictions.Value() == evBefore {
		t.Fatal("memory budget never evicted under a 40-vehicle fleet")
	}
	if tel.slowDisconnects.Value() == slowBefore {
		t.Fatal("stalled clients were never disconnected")
	}
}
