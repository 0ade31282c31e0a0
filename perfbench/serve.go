package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rups/internal/core"
	"rups/internal/obs"
	"rups/internal/serve"
	"rups/internal/trajectory"
	"rups/internal/v2v"
)

// serverStaleness is cmd/rups-serve's -stale-after/-expire-after default.
var serverStaleness = core.Staleness{StaleAfterSec: 30, ExpireAfterSec: 150}

// ioTimeout bounds every blocking socket operation of the load generator:
// a wedged server fails the run instead of hanging it.
const ioTimeout = 30 * time.Second

// startServer runs an in-process serve.Server on loopback with
// cmd/rups-serve's flag defaults and the engine pinned to nproc workers.
func (b *bench) startServer() (*serve.Server, error) {
	s := serve.New(serve.Config{
		Addr:           "127.0.0.1:0",
		Workers:        b.nproc,
		Params:         core.DefaultParams(),
		Staleness:      serverStaleness,
		MaxConns:       1024,
		QueueCap:       256,
		PerConnQueries: 64,
		MemBudgetBytes: 64 << 20,
		SweepEverySec:  5,
		RetryAfterSec:  0.5,
	})
	if err := s.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	return s, nil
}

// wallNow is the server clock's time domain (serve.WallClock).
func wallNow() float64 { return serve.WallClock{}.Now() }

// remap returns an owned copy of a whose mark timestamps are mapped from
// sim time into the server clock's domain: T' = anchor + (T − simAt)·scale.
func remap(a *trajectory.Aware, simAt, anchor, scale float64) *trajectory.Aware {
	c := a.Clone()
	for i := range c.Geo.Marks {
		c.Geo.Marks[i].T = anchor + (c.Geo.Marks[i].T-simAt)*scale
	}
	return c
}

// wireTally counts what stream sessions put on the wire, both directions:
// length prefixes, HELLO, DATA and ACK frames.
type wireTally struct {
	bytes, frames atomic.Int64
}

// streamSession streams marks [from, to) of vehicle vid's trajectory in a
// short session on a fresh connection: HELLO under the vehicle's standing
// epoch (1), DATA frames windowed like v2v.Session — at most
// DefaultSyncConfig().Window unacked chunks of ChunkMarks marks in flight —
// then the covering ACK. It returns the operation's outcome.
func streamSession(addr string, vid uint32, a *trajectory.Aware, from, to int, w *wireTally) (string, error) {
	nc, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return outTransport, err
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return outTransport, err
	}
	c := serve.NewClient(nc)
	const epoch = 1
	if err := c.Hello(vid, epoch, a.Width()); err != nil {
		return outDisconnect, err
	}
	w.bytes.Add(4 + 18) // length prefix + HELLO frame
	cfg := v2v.DefaultSyncConfig()
	var inflight []int // end mark of each unacked chunk
	next, cum := from, from
	for cum < to {
		for next < to && len(inflight) < cfg.Window {
			end := min(next+cfg.ChunkMarks, to)
			for _, fr := range chunkFrames(a, next, end, epoch) {
				if err := c.SendRaw(fr); err != nil {
					return outDisconnect, err
				}
				w.bytes.Add(int64(4 + len(fr)))
				w.frames.Add(1)
			}
			inflight = append(inflight, end)
			next = end
		}
		m, err := c.ReadMsg()
		if err != nil {
			return readOutcome(err), err
		}
		switch m.Kind {
		case serve.MsgAck:
			w.bytes.Add(4 + 16) // length prefix + epoch-stamped ACK
			if m.AckEpoch != epoch {
				return outTransport, fmt.Errorf("vehicle %d: ack under epoch %d", vid, m.AckEpoch)
			}
			if m.AckCum > cum {
				cum = m.AckCum
			}
			for len(inflight) > 0 && inflight[0] <= cum {
				inflight = inflight[1:]
			}
		case serve.MsgRefuse:
			return refuseOutcome(m.Reason), fmt.Errorf("vehicle %d: stream refused (reason %d)", vid, m.Reason)
		case serve.MsgDrain:
			return outDisconnect, fmt.Errorf("vehicle %d: server draining", vid)
		}
	}
	return outOK, nil
}

// readOutcome classifies a failed read: the peer closing the connection is
// a disconnect, anything else a transport error.
func readOutcome(err error) string {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF) {
		return outDisconnect
	}
	return outTransport
}

func refuseOutcome(reason byte) string {
	switch reason {
	case serve.RefuseQueueFull:
		return outRefusedQ
	case serve.RefuseRate:
		return outRefusedR
	case serve.RefuseDraining:
		return outRefusedD
	default:
		return outRefusedC
	}
}

// query is one pair query: which fleet vehicles, when it was due, sent and
// answered, its outcome and answer.
type query struct {
	a, b       int // fleet indexes; the server sees vid = index + 1
	due, sent  time.Time
	done       time.Time
	traced     bool
	outcome    string
	dist       float64
	round      int     // serve-track round (−1 in serve-cold)
	truth      float64 // ground-truth answer; NaN for vehicles on different roads
	ctxA, ctxB int     // marks the server held for a and b when sent
	span       obs.Span
	answered   bool
}

// queryConn is one query connection: a writer (the caller) and a reader
// goroutine matching RESULT/REFUSE frames to pending queries.
type queryConn struct {
	nc      net.Conn
	c       *serve.Client
	mu      sync.Mutex
	pending map[uint32]*query
	nextQID uint32
	dead    bool
	done    chan struct{}
	// onDone runs after each query resolves or fails (on the reader
	// goroutine, or the sender's for a failed send); closed-loop workloads
	// send their next query from it.
	onDone func(*queryConn, *query)
}

// dialQueries opens a query connection and starts its reader.
func dialQueries(addr string, onDone func(*queryConn, *query)) (*queryConn, error) {
	nc, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	qc := &queryConn{nc: nc, c: serve.NewClient(nc), pending: make(map[uint32]*query),
		done: make(chan struct{}), onDone: onDone}
	go qc.readLoop()
	return qc, nil
}

// send issues q (no deadline: the workloads are sized so nothing sheds).
// A dead connection fails the query without retrying it.
func (qc *queryConn) send(q *query) {
	qc.mu.Lock()
	if qc.dead {
		qc.mu.Unlock()
		q.outcome = outDisconnect
		qc.finish(q)
		return
	}
	qc.nextQID++
	qid := qc.nextQID
	qc.pending[qid] = q
	q.sent = time.Now()
	qc.mu.Unlock()
	if err := qc.c.Query(qid, uint32(q.a+1), uint32(q.b+1), 0); err != nil {
		qc.mu.Lock()
		_, mine := qc.pending[qid]
		delete(qc.pending, qid)
		qc.mu.Unlock()
		if mine {
			q.outcome = outTransport
			qc.finish(q)
		}
	}
}

func (qc *queryConn) finish(q *query) {
	q.span.End()
	if qc.onDone != nil {
		qc.onDone(qc, q)
	}
}

// outstanding reports how many sent queries await an answer.
func (qc *queryConn) outstanding() int {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	return len(qc.pending)
}

func (qc *queryConn) readLoop() {
	defer close(qc.done)
	for {
		m, err := qc.c.ReadMsg()
		now := time.Now()
		if err != nil {
			// Every query still pending fails; none is retried.
			qc.mu.Lock()
			qc.dead = true
			lost := make([]*query, 0, len(qc.pending))
			for id, q := range qc.pending {
				lost = append(lost, q)
				delete(qc.pending, id)
			}
			qc.mu.Unlock()
			for _, q := range lost {
				q.outcome, q.done = readOutcome(err), now
				qc.finish(q)
			}
			return
		}
		if m.Kind != serve.MsgResult && m.Kind != serve.MsgRefuse {
			continue
		}
		qc.mu.Lock()
		q := qc.pending[m.QID]
		delete(qc.pending, m.QID)
		qc.mu.Unlock()
		if q == nil {
			continue // a connection-level refusal (QID 0) fails the next read
		}
		q.done = now
		if m.Kind == serve.MsgRefuse {
			q.outcome = refuseOutcome(m.Reason)
			qc.finish(q)
			continue
		}
		q.answered = true
		q.dist = m.Distance
		switch m.Status {
		case serve.StatusOK:
			q.outcome = outOK
			if m.Stale {
				q.outcome = outStale
			}
		case serve.StatusUnresolved:
			q.outcome = outUnresolved
		case serve.StatusShed:
			q.outcome = outShed
		default:
			q.outcome = outUnknown
		}
		qc.finish(q)
	}
}

// close shuts the connection and waits for the reader to exit.
func (qc *queryConn) close() {
	qc.nc.Close()
	<-qc.done
}

// waitDrained waits until no query is pending or the timeout passes.
func waitDrained(conns []*queryConn, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		n := 0
		for _, qc := range conns {
			n += qc.outstanding()
		}
		if n == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// queryGate checks sampled answers bit-for-bit against core.Resolve on the
// contexts the server held. ctxOf returns those contexts for a query.
func (b *bench) queryGate(qs []*query, ctxOf func(*query) (*trajectory.Aware, *trajectory.Aware), p core.Params) error {
	checked := 0
	for _, q := range qs {
		got := q.dist
		answeredOK := q.outcome == outOK || q.outcome == outStale
		if b.o.wrongAnswer && checked == 0 {
			// One ulp off an answer, or an answer where there was none.
			got = math.Nextafter(got, math.Inf(1))
			answeredOK = true
		}
		ca, cb := ctxOf(q)
		est, ok := core.Resolve(ca, cb, p)
		if ok != answeredOK || (ok && math.Float64bits(est.Distance) != math.Float64bits(got)) {
			return fmt.Errorf("correctness gate: query (%d, %d) answered %v/%v, core.Resolve on the server's contexts gives %v/%v",
				q.a+1, q.b+1, answeredOK, got, ok, est.Distance)
		}
		checked++
	}
	if checked == 0 {
		return fmt.Errorf("correctness gate: no answer was sampled")
	}
	b.reportf("correctness gate: %d sampled RESULT distances bit-equal core.Resolve on the server's contexts", checked)
	return nil
}

// tallyQueries counts every query's outcome and adds each answered one's
// latency (from its due time) and answer to tm, by tracing mode.
func (b *bench) tallyQueries(qs []*query, start time.Time, tm *timed) {
	for _, q := range qs {
		b.count(q.outcome, 1)
		if !q.answered {
			continue
		}
		tm.add(q.traced, q.due.Sub(start).Seconds(), 1e3*q.done.Sub(q.due).Seconds())
		tm.answers[modeIdx(q.traced)]++
	}
}

// fidelity reports paper fidelity over the OK answers: |d_r − ground
// truth| (Fig 12), the resolved share, and OK answers to pairs with no
// ground truth (different roads: false positives).
func (b *bench) fidelity(qs []*query) {
	var errM []float64
	ok, falsePos := 0, 0
	for _, q := range qs {
		if q.outcome != outOK && q.outcome != outStale {
			continue
		}
		ok++
		if math.IsNaN(q.truth) {
			falsePos++
			continue
		}
		errM = append(errM, math.Abs(q.dist-q.truth))
	}
	b.reportf("dr_err_p50_m %.4f m over %d OK answers with ground truth; resolved_frac %.4f of %d queries; %d OK answers to pairs on different roads",
		quantile(errM, 0.5), len(errM), ratio(float64(ok), float64(len(qs))), len(qs), falsePos)
}

// serveLayers adds the serve-path report lines shared by both service
// workloads: the server's own resolve histogram against the client's view.
func (b *bench) serveLayers(tm *timed, stats serve.DrainStats, queuePeak int64) {
	b.reportf("serve.resident_bytes_per_vehicle %.0f B (%d vehicles, %d bytes resident at drain)",
		ratio(float64(stats.ResidentBytes), float64(stats.ResidentVehicles)), stats.ResidentVehicles, stats.ResidentBytes)
	if b.reg == nil {
		return
	}
	b.reportf("serve.queue_depth_peak %d", queuePeak)
	client := quantile(tm.latMS[1], 0.5)
	srv := b.layer["serve.resolve_ms_p50"]
	b.reportf("client.unexplained_ms_p50 %.4f ms (client latency p50 %.4f − serve.resolve_ms_p50 %.4f: transport, framing and client scheduling)",
		client-srv, client, srv)
}

// pollQueueDepth samples the server's admission-queue gauge every
// millisecond until stop is closed and returns the peak.
func (b *bench) pollQueueDepth(stop <-chan struct{}) <-chan int64 {
	out := make(chan int64, 1)
	if b.reg == nil {
		out <- 0
		return out
	}
	g := b.reg.Gauge("rups_serve_queue_depth", "admitted queries waiting for the resolver")
	go func() {
		var peak int64
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			if v := g.Value(); v > peak {
				peak = v
			}
			select {
			case <-t.C:
			case <-stop:
				out <- peak
				return
			}
		}
	}()
	return out
}
