package serve

import (
	"math/rand"
	"net"
	"sync"
	"testing"

	"rups/internal/core"
	"rups/internal/obs"
	"rups/internal/trajectory"
	"rups/internal/v2v"
)

// testConvoy builds n vehicles driving the same road with planted
// alignment (vehicle vi trails the leader by vi*gap metres), mirroring the
// engine test convoy so pair queries resolve to real distances. Mark
// timestamps end near t=1249, so tests run their clocks around 1250.
func testConvoy(seed int64, n, length, gap, width int) []*trajectory.Aware {
	rng := rand.New(rand.NewSource(seed))
	world := make([][]float64, width)
	span := length + (n-1)*gap
	for ch := range world {
		world[ch] = make([]float64, span)
		v := -80 + 20*rng.NormFloat64()
		for i := range world[ch] {
			v += 2 * rng.NormFloat64()
			if v < -110 {
				v = -110
			}
			if v > -45 {
				v = -45
			}
			world[ch][i] = v
		}
	}
	out := make([]*trajectory.Aware, n)
	for vi := 0; vi < n; vi++ {
		offset := (n - 1 - vi) * gap
		g := trajectory.Geo{Marks: make([]trajectory.GeoMark, length)}
		for i := range g.Marks {
			g.Marks[i] = trajectory.GeoMark{T: 1000 - float64(vi) + float64(i)}
		}
		a := trajectory.NewAwareWidth(g, width)
		vrng := rand.New(rand.NewSource(seed + int64(vi) + 1))
		for ch := 0; ch < width; ch++ {
			for i := 0; i < length; i++ {
				a.SetPower(ch, i, world[ch][offset+i]+1.0*vrng.NormFloat64())
			}
		}
		out[vi] = a
	}
	return out
}

func testParams() core.Params {
	p := core.DefaultParams()
	p.WindowChannels = 40
	return p
}

// streamVehicle pushes a whole trajectory through one client connection
// and blocks until the server's cumulative ack covers it.
func streamVehicle(t *testing.T, cl *Client, vid, epoch uint32, traj *trajectory.Aware) {
	t.Helper()
	if err := cl.Hello(vid, epoch, traj.Width()); err != nil {
		t.Fatalf("hello v%d: %v", vid, err)
	}
	d, err := v2v.MakeDelta(traj, 0)
	if err != nil {
		t.Fatalf("delta v%d: %v", vid, err)
	}
	if err := cl.SendDelta(d, epoch); err != nil {
		t.Fatalf("send v%d: %v", vid, err)
	}
	for {
		m, err := cl.ReadMsg()
		if err != nil {
			t.Fatalf("read ack v%d: %v", vid, err)
		}
		if m.Kind == MsgAck && m.AckEpoch == epoch && m.AckCum >= traj.Len() {
			return
		}
	}
}

// readResult skips interleaved acks until a RESULT (or REFUSE) arrives.
func readResult(t *testing.T, cl *Client) Msg {
	t.Helper()
	for {
		m, err := cl.ReadMsg()
		if err != nil {
			t.Fatalf("read result: %v", err)
		}
		if m.Kind == MsgResult || m.Kind == MsgRefuse {
			return m
		}
	}
}

// TestServeStreamAndQuery is the service's end-to-end happy path: two
// vehicles stream their trajectories over TCP, a query for their relative
// distance resolves, and the answer matches the sequential core.Resolve
// oracle exactly — the wire, the receiver reconstruction, and the engine
// must not perturb the estimate.
func TestServeStreamAndQuery(t *testing.T) {
	trajs := testConvoy(11, 2, 250, 20, 64)
	sim := NewSimClock(1250)
	s := New(Config{
		Addr: "127.0.0.1:0", Clock: sim, Workers: 2,
		Params: testParams(), Staleness: core.Staleness{StaleAfterSec: 300, ExpireAfterSec: 600},
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	c1, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	streamVehicle(t, c1, 1, 1, trajs[0])
	streamVehicle(t, c2, 2, 1, trajs[1])

	if err := c1.Query(7, 1, 2, 0); err != nil {
		t.Fatal(err)
	}
	m := readResult(t, c1)
	if m.Kind != MsgResult || m.QID != 7 {
		t.Fatalf("got %+v, want RESULT qid 7", m)
	}
	if m.Status != StatusOK {
		t.Fatalf("status %d, want OK", m.Status)
	}
	want, ok := core.Resolve(trajs[0], trajs[1], testParams())
	if !ok {
		t.Fatal("oracle did not resolve")
	}
	if m.Distance != want.Distance {
		t.Fatalf("distance %v diverged from oracle %v", m.Distance, want.Distance)
	}

	// A query touching a vehicle nobody streamed answers explicitly.
	if err := c1.Query(8, 1, 99, 0); err != nil {
		t.Fatal(err)
	}
	if m := readResult(t, c1); m.Status != StatusUnknownVehicle {
		t.Fatalf("got %+v, want unknown-vehicle", m)
	}
}

// TestQueueFullRefusal: with the resolver deliberately not running, the
// bounded admission queue fills and the next query is refused with an
// explicit queue-full REFUSE carrying the retry hint — never silently
// dropped, never queued unboundedly.
func TestQueueFullRefusal(t *testing.T) {
	sim := NewSimClock(100)
	s := New(Config{Clock: sim, QueueCap: 2, RetryAfterSec: 0.25})
	// No Start: the queue has no consumer, making overflow deterministic.
	srv, cli := net.Pipe()
	defer cli.Close()
	c := &conn{s: s, nc: srv, outbox: make(chan []byte, 8)}
	s.connWG.Add(1)
	go c.writeLoop()
	defer c.closeSend()

	peer := NewClient(cli)
	for i := 0; i < 2; i++ {
		s.admitQuery(&query{qid: uint32(i), c: c})
	}
	s.admitQuery(&query{qid: 42, c: c})
	m, err := peer.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != MsgRefuse || m.QID != 42 || m.Reason != RefuseQueueFull {
		t.Fatalf("got %+v, want queue-full refusal of qid 42", m)
	}
	if m.RetryAfter != 0.25 {
		t.Fatalf("retry-after %v, want 0.25", m.RetryAfter)
	}

	// The per-connection outstanding bound refuses the same way.
	c.outstanding.Store(int64(s.cfg.PerConnQueries))
	s.admitQuery(&query{qid: 43, c: c})
	if m, _ := peer.ReadMsg(); m.Kind != MsgRefuse || m.QID != 43 || m.Reason != RefuseQueueFull {
		t.Fatalf("got %+v, want per-conn refusal of qid 43", m)
	}
}

// TestDeadlineShedThroughServer: a query admitted with a live deadline
// that expires before the resolver reaches it is answered StatusShed —
// the deadline propagated through the engine sheds the work unrun.
func TestDeadlineShedThroughServer(t *testing.T) {
	sim := NewSimClock(1000)
	s := New(Config{Clock: sim, Params: testParams()})
	defer s.eng.Close()
	s.tab.attach(1, 8, nil, sim.Now())
	s.tab.attach(2, 8, nil, sim.Now())

	srv, cli := net.Pipe()
	defer cli.Close()
	c := &conn{s: s, nc: srv, outbox: make(chan []byte, 8)}
	s.connWG.Add(1)
	go c.writeLoop()
	defer c.closeSend()

	q := &query{qid: 5, a: 1, b: 2, deadline: sim.Now() + 1, admitted: sim.Now(), c: c}
	c.outstanding.Add(1)
	sim.Advance(10) // the deadline passes while the query waits
	s.resolveBatch([]*query{q})

	peer := NewClient(cli)
	m, err := peer.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != MsgResult || m.QID != 5 || m.Status != StatusShed {
		t.Fatalf("got %+v, want shed result for qid 5", m)
	}
	if c.outstanding.Load() != 0 {
		t.Fatalf("outstanding %d, want 0", c.outstanding.Load())
	}
}

// TestRateLimitRefusal: the per-connection token bucket refuses the query
// that exceeds the burst and recovers after the clock refills it.
func TestRateLimitRefusal(t *testing.T) {
	sim := NewSimClock(50)
	s := New(Config{Clock: sim, RatePerSec: 1, RateBurst: 2})
	c := &conn{s: s, tokens: 2, last: sim.Now()}
	if !c.allow(sim.Now()) || !c.allow(sim.Now()) {
		t.Fatal("burst tokens refused")
	}
	if c.allow(sim.Now()) {
		t.Fatal("third immediate query allowed past the burst")
	}
	sim.Advance(1.5)
	if !c.allow(sim.Now()) {
		t.Fatal("refilled token refused")
	}
	if c.allow(sim.Now()) {
		t.Fatal("fractional token allowed")
	}
}

// stallConn is a client socket that never drains: Write reports its first
// entry on entered and then blocks until Close, which fails it. Only Write
// and Close are used by conn.writeLoop.
type stallConn struct {
	net.Conn
	entered, closed chan struct{}
	enter, close    sync.Once
}

func newStallConn() *stallConn {
	return &stallConn{entered: make(chan struct{}), closed: make(chan struct{})}
}

func (c *stallConn) Write([]byte) (int, error) {
	c.enter.Do(func() { close(c.entered) })
	<-c.closed
	return 0, net.ErrClosed
}

func (c *stallConn) Close() error {
	c.close.Do(func() { close(c.closed) })
	return nil
}

// TestSlowReaderDisconnect: a client that stops reading cannot wedge the
// server — once its outbox fills, the connection is aborted and the slow-
// disconnect counter moves. The socket's Write blocks, and the test sends
// again only once the writer is inside it, so the overflow is exact: one
// message in the writer's hands, OutboxCap in the box, the next send
// fails.
func TestSlowReaderDisconnect(t *testing.T) {
	obs.Enable(obs.NewRegistry())
	defer obs.Disable()

	sim := NewSimClock(0)
	s := New(Config{Clock: sim, OutboxCap: 1})
	defer s.eng.Close()
	nc := newStallConn()
	c := &conn{s: s, nc: nc, outbox: make(chan []byte, s.cfg.OutboxCap)}
	s.connWG.Add(1)
	go c.writeLoop()

	before := stel().slowDisconnects.Value()
	sent := 0
	for ; sent < 3; sent++ { // 1 in-flight + 1 buffered: the 3rd must drop
		if !c.send(resultFrame(uint32(sent), StatusOK, false, 1, 0)) {
			break
		}
		if sent == 0 {
			<-nc.entered // the writer holds the first message
		}
	}
	if sent == 3 {
		t.Fatal("sends into a dead client never failed")
	}
	if sent != 2 {
		t.Fatalf("send %d dropped, want the 3rd", sent+1)
	}
	if got := stel().slowDisconnects.Value(); got != before+1 {
		t.Fatalf("slow disconnects %d, want %d", got, before+1)
	}
	// The connection is dead: subsequent sends refuse immediately.
	if c.send(drainFrame()) {
		t.Fatal("send succeeded after slow-reader abort")
	}
	s.connWG.Wait()
}

// TestEvictionUnderMemoryBudget: resident snapshots past the byte budget
// evict LRU-first, the owning connection is kicked, and the metrics
// account for every eviction.
func TestEvictionUnderMemoryBudget(t *testing.T) {
	obs.Enable(obs.NewRegistry())
	defer obs.Disable()

	width := 8
	tab := newVTable(residentBytes(10, width)*5/2, core.Staleness{}) // room for two 10-mark vehicles
	sim := NewSimClock(10)
	tel := stel()
	evBefore := tel.evictions.Value()

	kicked := make(map[uint32]bool)
	feed := func(vid uint32, marks int) {
		e, _ := tab.attach(vid, width, func() { kicked[vid] = true }, sim.Now())
		g := trajectory.Geo{Marks: make([]trajectory.GeoMark, marks)}
		for i := range g.Marks {
			g.Marks[i] = trajectory.GeoMark{T: float64(i)}
		}
		d, err := v2v.MakeDelta(trajectory.NewAwareWidth(g, width), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, fr := range v2v.DataFrames(d, obs.TraceRef{}, 1) {
			e.mu.Lock()
			e.rx.Offer(fr)
			e.mu.Unlock()
		}
		tab.charge(e, sim.Now())
		sim.Advance(1)
	}
	feed(1, 10)
	feed(2, 10)
	if n, _ := tab.stats(); n != 2 {
		t.Fatalf("resident %d, want 2", n)
	}
	feed(3, 10) // three vehicles > budget: vehicle 1 (coldest) must go
	if n, _ := tab.stats(); n != 2 {
		t.Fatalf("resident %d after eviction, want 2", n)
	}
	if tab.get(1, sim.Now()) != nil {
		t.Fatal("vehicle 1 still resident, want LRU-evicted")
	}
	if !kicked[1] || kicked[2] || kicked[3] {
		t.Fatalf("kicks %+v, want exactly vehicle 1", kicked)
	}
	if got := tel.evictions.Value(); got != evBefore+1 {
		t.Fatalf("evictions %d, want %d", got, evBefore+1)
	}

	// Staleness expiry sweeps even with room to spare.
	expBefore := tel.evictionsExpiry.Value()
	tab.pol = core.Staleness{ExpireAfterSec: 5}
	sim.Advance(100)
	if n := tab.sweepExpired(sim.Now()); n != 2 {
		t.Fatalf("swept %d, want 2", n)
	}
	if got := tel.evictionsExpiry.Value(); got != expBefore+2 {
		t.Fatalf("expiry evictions %d, want %d", got, expBefore+2)
	}
	if n, b := tab.stats(); n != 0 || b != 0 {
		t.Fatalf("resident %d/%dB after sweep, want empty", n, b)
	}
}

// TestEpochRestartThroughServer: a vehicle that reconnects under a bumped
// epoch resyncs from scratch — the server discards the dead incarnation's
// reconstruction instead of wedging on its acks.
func TestEpochRestartThroughServer(t *testing.T) {
	trajs := testConvoy(13, 2, 120, 20, 16)
	sim := NewSimClock(1250)
	s := New(Config{Addr: "127.0.0.1:0", Clock: sim, Params: testParams()})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	c1, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	streamVehicle(t, c1, 1, 1, trajs[0])
	c1.Close() // abrupt restart, no goodbye

	c2, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	streamVehicle(t, c2, 1, 2, trajs[1]) // same vehicle, new epoch, new life

	e := s.tab.get(1, sim.Now())
	if e == nil {
		t.Fatal("vehicle 1 not resident")
	}
	e.mu.Lock()
	resets, epoch, n := e.rx.Resets(), e.rx.Epoch(), e.rx.Copy().Len()
	e.mu.Unlock()
	if resets != 1 || epoch != 2 || n != trajs[1].Len() {
		t.Fatalf("resets=%d epoch=%d len=%d, want 1/2/%d", resets, epoch, n, trajs[1].Len())
	}
}

// TestMalformedInputsDoNotKillTheServer: garbage messages, corrupt
// control frames, and oversized length prefixes are counted and the
// server stays up; the oversize case disconnects only the offender.
func TestMalformedInputsDoNotKillTheServer(t *testing.T) {
	obs.Enable(obs.NewRegistry())
	defer obs.Disable()

	sim := NewSimClock(1250)
	s := New(Config{Addr: "127.0.0.1:0", Clock: sim, Params: testParams()})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	tel := stel()
	before := tel.malformed.Value()

	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Garbage bytes under valid framing: dropped, counted, conn survives.
	if err := cl.SendRaw([]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// A corrupted QUERY (CRC broken): same.
	q := queryFrame(1, 1, 2, 0)
	q[len(q)-1] ^= 0xFF
	if err := cl.SendRaw(q); err != nil {
		t.Fatal(err)
	}
	// The connection still works after both.
	if err := cl.Query(9, 1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if m := readResult(t, cl); m.QID != 9 || m.Status != StatusUnknownVehicle {
		t.Fatalf("got %+v, want unknown-vehicle answer for qid 9", m)
	}
	// The reader goroutine handles messages in order, so the answered
	// query proves both bad messages were already processed and counted.
	if got := tel.malformed.Value(); got < before+2 {
		t.Fatalf("malformed counter %d, want at least %d", got, before+2)
	}

	// An oversized length prefix is a framing violation: that connection
	// dies, the server does not.
	evil, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer evil.Close()
	if err := evil.SendRaw(make([]byte, maxMsgLen+1)); err != nil {
		t.Fatal(err)
	}
	if _, err := evil.ReadMsg(); err == nil {
		t.Fatal("oversized message did not disconnect the offender")
	}
	cl2, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("server dead after framing violation: %v", err)
	}
	cl2.Close()
}

// TestResidentChargePerMark: a vehicle is charged 16 B of geometry for
// every mark it holds, one byte per channel for every column of every
// power tile it has allocated (128 columns a tile, the last one partly
// filled), plus its sealed tiles' channel tallies (4 B per channel), and
// the resident-bytes gauge reports the charge.
func TestResidentChargePerMark(t *testing.T) {
	obs.Enable(obs.NewRegistry())
	defer obs.Disable()

	const width, marks = 194, 300
	tab := newVTable(0, core.Staleness{})
	e, _ := tab.attach(7, width, func() {}, 0)
	offerMarks(t, e, marks, width)
	tab.charge(e, 0)
	want := int64(marks*16 + 3*128*width + 2*width*4)
	if e.bytes != want {
		t.Errorf("charged %d B for %d marks × %d channels, want %d", e.bytes, marks, width, want)
	}
	if got := stel().residentBytes.Value(); got != want {
		t.Errorf("resident-bytes gauge %d, want %d", got, want)
	}
}

// offerMarks streams marks blank marks of the given width into e's
// receiver.
func offerMarks(t *testing.T, e *vehicleEntry, marks, width int) {
	t.Helper()
	g := trajectory.Geo{Marks: make([]trajectory.GeoMark, marks)}
	for i := range g.Marks {
		g.Marks[i] = trajectory.GeoMark{T: float64(i)}
	}
	d, err := v2v.MakeDelta(trajectory.NewAwareWidth(g, width), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range v2v.DataFrames(d, obs.TraceRef{}, 1) {
		e.mu.Lock()
		e.rx.Offer(fr)
		e.mu.Unlock()
	}
}

// TestResidentChargeCoversTiles: a one-mark vehicle already holds a whole
// width × 128 power tile, so it must be charged at least that — a fleet of
// wide one-mark vehicles must not slip under the budget at a few hundred
// bytes each. The fleet is evicted down to the budget.
func TestResidentChargeCoversTiles(t *testing.T) {
	obs.Enable(obs.NewRegistry())
	defer obs.Disable()

	const width, fleet = 194, 10
	budget := int64(9 * width * trajectory.ChunkMarks / 2) // four and a half tiles: room for 4 such vehicles
	tab := newVTable(budget, core.Staleness{})
	for vid := uint32(1); vid <= fleet; vid++ {
		e, _ := tab.attach(vid, width, func() {}, float64(vid))
		offerMarks(t, e, 1, width)
		if e.rx.Copy().Len() != 1 {
			t.Fatalf("vehicle %d holds %d marks, want 1", vid, e.rx.Copy().Len())
		}
		tab.charge(e, float64(vid))
		if e.bytes < width*trajectory.ChunkMarks {
			t.Fatalf("one-mark vehicle of width %d charged %d B, under its %d B tile", width, e.bytes, width*trajectory.ChunkMarks)
		}
	}
	n, bytes := tab.stats()
	if bytes > budget {
		t.Errorf("resident %d B over the %d B budget", bytes, budget)
	}
	if n != 4 {
		t.Errorf("%d of %d one-mark vehicles resident under the budget, want 4", n, fleet)
	}
}
