// Package engine batches relative-distance resolution across a platoon: it
// owns a bounded worker pool and resolves many vehicle pairs concurrently,
// fanning both the per-pair queries and each query's NumSYN segment tasks
// (one double-sliding check each) over the same pool. Results are bit-identical to the sequential
// core.Resolve oracle — every scheduled task is internally deterministic
// and writes only its own result slot, and combination happens in a fixed
// order — so concurrency changes latency, never answers.
//
// Trajectories are decoupled at query admission: the engine snapshots every
// live trajectory once (trajectory.Aware.Snapshot) before any worker
// touches it, so vehicles may keep appending marks while a batch resolves.
package engine

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rups/internal/core"
	"rups/internal/obs"
	"rups/internal/obs/flight"
	"rups/internal/trajectory"
)

// ErrClosed is returned by admission entry points called after Close.
var ErrClosed = errors.New("engine: closed")

// Engine is a bounded worker pool for batch relative-distance resolution.
// The zero value is not usable; construct with New and release with Close.
type Engine struct {
	workers int
	// tasks carries scheduled work to the workers. The channel doubles as
	// the workers' shutdown signal: Close closes it and the workers drain
	// and exit.
	tasks chan func()
	wg    sync.WaitGroup
	once  sync.Once

	// mu guards closed, and crucially is read-held across every channel
	// send: Close flips closed under the write lock before closing the
	// channel, so no submit can race a send against the close.
	mu     sync.RWMutex
	closed bool

	// pairs holds each pair's cross-batch state, keyed by its stable
	// identity (see PairID). tmu guards the map and its entries. Entries
	// no batch has queried for pairIdleBatches generations are swept, so a
	// departed pair does not accumulate state forever.
	tmu   sync.Mutex
	pairs map[PairID]pairState
	// gen counts Resolve calls that carried identified queries.
	gen uint64

	// nowBits is the float64 bits of the latest batch's sim time — the
	// timestamp run()'s flight events carry. The engine has no sim clock
	// of its own; Resolve batches donate theirs.
	nowBits atomic.Uint64

	// clockNow, when set, is the time source deadline rechecks consult at
	// task start (same domain as the deadlines callers pass — sim seconds
	// in tests, wall-clock seconds in the resolution service). Nil keeps
	// the engine deterministic: deadlines are then only checked against
	// the batch's own now, before scheduling. Set via SetClock.
	clockNow func() float64

	// sidesOut counts resolver sides built and not yet released: 0 between
	// batches, whatever shed or expired.
	sidesOut atomic.Int64
}

// SetClock installs the time source for deadline rechecks at task start.
// Must be called before the engine resolves its first batch (it is read
// concurrently by pool workers without synchronization afterwards).
func (e *Engine) SetClock(now func() float64) { e.clockNow = now }

// simNow returns the latest batch sim time donated to the engine.
func (e *Engine) simNow() float64 { return math.Float64frombits(e.nowBits.Load()) }

// pairState is one pair's cross-batch state: its last staleness class
// (zero value = fresh), so the flight recorder sees transitions rather
// than one event per tick, and the last generation that queried it.
type pairState struct {
	class core.Freshness
	gen   uint64
}

// pairIdleBatches is how many consecutive generations a pair may go
// unqueried before its state is swept. Convoy callers resolve every
// tracked pair every tick, so anything idle this long has left the
// platoon.
const pairIdleBatches = 64

// beginGen opens a new generation and sweeps out pairs no batch has
// queried for pairIdleBatches generations. The sweep is O(cached pairs)
// once per Resolve call. A swept pair that returns starts over with a
// fresh first classification.
func (e *Engine) beginGen() {
	e.tmu.Lock()
	defer e.tmu.Unlock()
	e.gen++
	for id, st := range e.pairs {
		if e.gen-st.gen > pairIdleBatches {
			delete(e.pairs, id)
		}
	}
}

// touch records one query of pair id at class cls, stamped with the
// current generation, and returns the pair's previous class (fresh on
// first contact).
func (e *Engine) touch(id PairID, cls core.Freshness) (prev core.Freshness) {
	e.tmu.Lock()
	defer e.tmu.Unlock()
	prev = e.pairs[id].class
	e.pairs[id] = pairState{class: cls, gen: e.gen}
	return prev
}

// New starts an engine with the given number of workers; workers <= 0 means
// GOMAXPROCS. The pool is shared by every batch submitted to this engine.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{workers: workers, tasks: make(chan func()), pairs: make(map[PairID]pairState)}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// Workers reports the pool size.
func (e *Engine) Workers() int { return e.workers }

// worker drains the task channel until Close.
func (e *Engine) worker() {
	defer e.wg.Done()
	for t := range e.tasks {
		t()
	}
}

// Close shuts the pool down and waits for in-flight tasks to finish. Close
// is idempotent. Afterwards Admit returns ErrClosed; batches admitted
// before Close still resolve correctly, degraded to inline (sequential)
// execution.
func (e *Engine) Close() {
	e.once.Do(func() {
		e.mu.Lock()
		e.closed = true
		e.mu.Unlock()
		close(e.tasks)
		e.wg.Wait()
	})
}

// isClosed reports whether Close has begun.
func (e *Engine) isClosed() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.closed
}

// submit hands t to an idle worker if one is ready and the pool is still
// open. The read lock spans the send so Close cannot close the channel
// between the closed check and the send.
func (e *Engine) submit(t func()) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return false
	}
	select {
	case e.tasks <- t:
		return true
	default:
		return false
	}
}

// run is the engine's core.Parallel implementation. Handoff is help-first:
// a task is given to an idle worker when one is ready to receive, and run
// inline on the calling goroutine otherwise. Workers executing a pair task
// therefore never block waiting for pool capacity when the pair fans out
// its segment tasks — nested fan-out cannot deadlock, and the pool degrades
// to sequential execution under saturation (or after Close) instead of
// queueing.
func (e *Engine) run(tasks ...func()) {
	tel := engineTel.Get()
	fl := flight.Active()
	var wg sync.WaitGroup
	for _, t := range tasks {
		t := t
		wg.Add(1)
		if tel == nil {
			// Disabled-telemetry fast path: byte-for-byte the allocation
			// profile of the uninstrumented pool (one wrapper closure per
			// pooled handoff, nothing else).
			if !e.submit(func() { defer wg.Done(); t() }) {
				t()
				wg.Done()
			}
			continue
		}
		tel.tasks.Inc()
		// Count the task as queued before the handoff attempt: a worker may
		// start (and finish) it before submit even returns. A new depth
		// peak is a flight event: "the pool was at its most backed up
		// here" is exactly what a latency post-mortem wants on its
		// timeline. (fl is the handle cached before this loop.)
		if tel.peak.RaiseTo(tel.depth.Add(1)) && fl != nil {
			fl.Emit(flight.Event{T: e.simNow(), Kind: flight.KindQueueHighwater,
				A: -1, B: -1, V1: tel.peak.Value()})
		}
		if e.submit(func() {
			defer wg.Done()
			start := time.Now()
			t()
			tel.taskSec.Observe(time.Since(start).Seconds())
			tel.depth.Add(-1)
		}) {
			continue
		}
		tel.depth.Add(-1) // never reached a worker
		tel.inline.Inc()
		start := time.Now()
		t()
		tel.taskSec.Observe(time.Since(start).Seconds())
		wg.Done()
	}
	wg.Wait()
}

// Result is one resolved pair of a batch. A and B index the trajectory
// slice the batch was admitted with; Est is the resolved estimate
// (Est.Distance > 0 means B is ahead of A). OK is false when no SYN point
// passed the coherency threshold, the pair's indexes were out of range, or
// a staleness policy expired the pair's context. Freshness is the pair's
// staleness class under the batch's policy (see core.Staleness):
// StaleContext for a pair resolved from aged context, ExpiredContext for
// one refused unresolved, FreshContext otherwise.
type Result struct {
	A, B      int
	Est       core.Estimate
	OK        bool
	Freshness core.Freshness
	// Shed flags a pair whose deadline expired before its resolution
	// started (at admission, or — with SetClock installed — at task
	// start): the work was dropped unrun, OK is false, and the caller
	// should signal backpressure rather than treat the pair as
	// unresolvable. Pairs that started resolving always run to
	// completion; deadlines shed queued work, they do not cancel running
	// work.
	Shed bool
	// LatencySec is this pair's wall-clock resolve time (searcher build
	// through aggregation, queue wait excluded). The pair that builds its
	// slot's resolver side, or waits for another pair building it,
	// includes that time. Measured only when
	// telemetry is enabled or the pair is causally traced; 0 otherwise —
	// an untimed pair never reads the clock.
	LatencySec float64
}

// Batch is a set of trajectories admitted for resolution: every trajectory
// was snapshotted exactly once when Admit ran. Resolution reads only the
// snapshots, so once Admit has returned, the live trajectories may keep
// appending marks while the batch resolves.
type Batch struct {
	e     *Engine
	snaps []*trajectory.Aware
}

// Admit is the copy-on-read admission boundary: it snapshots every
// trajectory once, on the calling goroutine. The caller must own the
// trajectories for the duration of the call — admit at a quiescent point
// (a tick boundary, or the vehicle goroutine handing its own trajectory
// over); Admit returning is the synchronization point after which appends
// may resume concurrently with the batch's resolution. Admission is the
// simulation's stand-in for the paper's context exchange, so it records an
// "exchange" span (Arg = trajectories admitted). Returns ErrClosed after
// Close.
func (e *Engine) Admit(trajs ...*trajectory.Aware) (*Batch, error) {
	if e.isClosed() {
		return nil, ErrClosed
	}
	rec := obs.ActiveRecorder()
	sp := rec.Start(rec.NewTrace(), "exchange")
	sp.Arg = int64(len(trajs))
	defer sp.End()
	b := &Batch{e: e, snaps: make([]*trajectory.Aware, len(trajs))}
	for i, t := range trajs {
		b.snaps[i] = t.Snapshot()
	}
	return b, nil
}

// Len reports how many trajectories the batch admitted.
func (b *Batch) Len() int { return len(b.snaps) }

// PairID is a pair's stable identity: the ordered (resolver, peer)
// vehicle IDs. Staleness classes key on it, so a pair keeps its state
// however its trajectories land in a batch's slots.
// The zero PairID marks a query without identity, which reads and writes
// no pair state (the cold oracle): {0, 0} would pair a vehicle with
// itself, never a real pair. Flight events carry each half as its int32
// bit pattern.
type PairID [2]uint32

// flightAB returns the pair as flight-event A and B.
func (id PairID) flightAB() (a, b int32) {
	//lint:ignore widenconv deliberate bit pattern: flight events carry uint32 vehicle IDs in their int32 fields
	return int32(id[0]), int32(id[1])
}

// Query is one pair to resolve: A and B index the batch's admitted
// trajectories and Pair names the two vehicles (zero: no identity, so no
// staleness transitions). Deadline > 0 is the absolute time (same domain
// as Resolve's now) by which the resolution must have *started*; 0 means
// none. Ref, when nonzero, is the cross-vehicle trace ref of the context
// admission that produced the pair's snapshot (typically
// v2v.Session.TraceRef): the pair's queue wait and resolve pipeline then
// record as children of the sender-side sync spans, so one trace tells
// the pair's whole story across both vehicles.
type Query struct {
	A, B     int
	Pair     PairID
	Deadline float64
	Ref      obs.TraceRef
}

// Resolve resolves the queries at time now under a staleness policy and
// returns results in query order. Queries with out-of-range indexes yield
// OK == false rather than a panic. A pair's age is the older of its two
// contexts' ages (a resolution is only as current as its weaker side):
//
//   - expired pairs are not resolved at all (OK == false, Freshness ==
//     ExpiredContext): no silently wrong d_r from fossil context;
//   - stale pairs resolve normally but carry Freshness == StaleContext;
//   - fresh pairs resolve normally.
//
// Every query resolving at one slot shares that slot's resolver side
// (core.ResolverSide): the first of them to run builds it, the others
// wait for it, and the last to finish releases it. A slot none of whose
// queries runs builds none.
//
// Every pair scans cold, exactly as the core.Resolve oracle does: the
// engine keeps no scan state across batches.
//
// Deadlines shed load: a query already past its deadline at admission is
// shed before any scheduling (Result.Shed, OK false); with SetClock
// installed, the deadline is rechecked when a worker picks the task up,
// so work that expired while queued behind a backlog is shed instead of
// run — answers nobody is waiting for never displace live ones.
//
// Batches may resolve concurrently on one engine, naming the same pairs or
// not: the pair map is guarded, and a query reads only its own batch's
// snapshots.
func (b *Batch) Resolve(qs []Query, p core.Params, now float64, pol core.Staleness) []Result {
	e := b.e
	tel := engineTel.Get()
	fl := flight.Active()
	rec := obs.ActiveRecorder()
	var start time.Time
	if tel != nil {
		tel.batches.Inc()
		start = time.Now()
	}
	e.nowBits.Store(math.Float64bits(now))
	if slices.ContainsFunc(qs, func(q Query) bool { return q.Pair != PairID{} }) {
		e.beginGen()
	}
	out := make([]Result, len(qs))
	tasks := make([]func(), 0, len(qs))
	// shed drops query i unrun once its deadline has passed; late is how
	// far past, atStart 1 when the recheck ran at task start. Only the
	// slot owner calls it, so writing out[i] is race-free.
	shed := func(i int, late float64, atStart int64) {
		out[i].Shed = true
		if tel != nil {
			tel.pairsShed.Inc()
		}
		if fl != nil {
			a, b := qs[i].Pair.flightAB()
			fl.Emit(flight.Event{T: now, Kind: flight.KindShed,
				A: a, B: b, V1: int64(late * 1000), V2: atStart})
		}
	}
	clock := e.clockNow
	sides := make([]slotSide, len(b.snaps))
	for i, q := range qs {
		out[i] = Result{A: q.A, B: q.B}
		if q.A < 0 || q.A >= len(b.snaps) || q.B < 0 || q.B >= len(b.snaps) {
			continue
		}
		if q.Deadline > 0 && now > q.Deadline {
			// Dead on arrival: shed before classification or scheduling —
			// no staleness transition.
			shed(i, now-q.Deadline, 0)
			continue
		}
		fa, fb := q.Pair.flightAB()
		cls, age := core.FreshContext, 0.0
		if pol.Enabled() {
			age = max(core.ContextAge(b.snaps[q.A], now), core.ContextAge(b.snaps[q.B], now))
			cls = pol.Classify(age)
		}
		if q.Pair != (PairID{}) {
			if prev := e.touch(q.Pair, cls); fl != nil && prev != cls {
				fl.Emit(flight.Event{T: now, Kind: flight.KindStaleness,
					A: fa, B: fb, V1: int64(cls), V2: int64(prev)})
				if cls == core.ExpiredContext {
					// Crossing into expiry refuses the pair — one of the
					// black-box anomaly triggers. Emit the expiry detail,
					// then dump (best-effort; the capsule is advisory).
					fl.Emit(flight.Event{T: now, Kind: flight.KindExpired,
						A: fa, B: fb, V1: int64(age * 1000)})
					//lint:ignore errflow best-effort black-box dump; resolution must not fail because the disk did
					_, _ = fl.Anomaly("refused_pair", flight.Event{T: now,
						Kind: flight.KindRefused, A: fa, B: fb, V1: int64(age * 1000)})
				}
			}
		}
		switch cls {
		case core.ExpiredContext:
			out[i].Freshness = cls
			if tel != nil {
				tel.pairsExpired.Inc()
			}
			continue
		case core.StaleContext:
			if tel != nil {
				tel.pairsStale.Inc()
			}
		}
		// The queue span opens at scheduling and closes when a worker (or
		// the inline fallback) picks the task up: its duration is the
		// pair's queue wait, the critical-path component no per-stage span
		// could otherwise see. Inert (zero) when the pair is unstitched.
		var qsp obs.Span
		if q.Ref.Trace != 0 {
			qsp = rec.StartChild(q.Ref.Trace, q.Ref.Parent, "queue")
			qsp.Arg = int64(q.Pair[0])<<32 | int64(q.Pair[1])
		}
		// The clock is read only for telemetry or a traced pair; the
		// deadline recheck only when the caller both set a deadline and
		// installed a clock.
		timed := tel != nil || q.Ref.Trace != 0
		side := &sides[q.A]
		side.users.Add(1)
		tasks = append(tasks, func() {
			qsp.End()
			defer side.done(e)
			if q.Deadline > 0 && clock != nil {
				if late := clock() - q.Deadline; late > 0 {
					shed(i, late, 1)
					return
				}
			}
			out[i].Freshness = cls // fresh or stale: expired never schedules
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			s := core.NewSearcherOn(side.get(e, tel, b.snaps[q.A], p), b.snaps[q.B])
			s.SetTrace(q.Ref)
			out[i].Est, out[i].OK = s.Resolve(e.run)
			s.Release()
			if timed {
				out[i].LatencySec = time.Since(t0).Seconds()
				if tel != nil {
					tel.pairSec.Observe(out[i].LatencySec)
				}
			}
		})
	}
	e.run(tasks...)
	if tel != nil {
		tel.batchSec.Observe(time.Since(start).Seconds())
	}
	return out
}

// slotSide is one admitted slot's resolver side within a Batch.Resolve
// call, shared by every runnable query that resolves at the slot. users
// counts those queries before any runs; each decrements it once when it
// finishes or is shed at task start, and the last releases the side.
type slotSide struct {
	once  sync.Once
	side  *core.ResolverSide
	users atomic.Int32
}

// get returns the slot's side, building it on first call; concurrent
// callers wait for the build.
func (ss *slotSide) get(e *Engine, tel *engineTelemetry, snap *trajectory.Aware, p core.Params) *core.ResolverSide {
	ss.once.Do(func() {
		ss.side = core.NewResolverSide(snap, p)
		e.sidesOut.Add(1)
		if tel != nil {
			tel.sides.Inc()
		}
	})
	return ss.side
}

// done marks one of the slot's queries finished, releasing the side after
// the last. Every earlier query's done happens before the last one's, so
// the last sees the side whichever query built it.
func (ss *slotSide) done(e *Engine) {
	if ss.users.Add(-1) == 0 && ss.side != nil {
		ss.side.Release()
		ss.side = nil
		e.sidesOut.Add(-1)
	}
}

// ResolvePairs resolves the given pairs (indexes into the admitted slice)
// and returns results in input order. Its queries carry no pair identity,
// so no pair state is consulted or updated. It is kept for the frozen
// benchmark harness (perfbench), its only caller outside tests; new code
// builds []Query and calls Resolve.
func (b *Batch) ResolvePairs(pairs [][2]int, p core.Params) []Result {
	return b.Resolve(slotQueries(pairs), p, 0, core.Staleness{})
}

// ResolvePairsAt is Resolve with each pair named by its slot indexes — a
// stable identity only for callers that admit in a fixed order. With a
// zero-value (disabled) policy it returns exactly what ResolvePairs
// would. It is kept for the frozen
// benchmark harness (perfbench), its only caller outside tests; new code
// builds []Query and calls Resolve.
func (b *Batch) ResolvePairsAt(pairs [][2]int, p core.Params, now float64, pol core.Staleness) []Result {
	qs := slotQueries(pairs)
	for i := range qs {
		qs[i].Pair = PairID{uint32(qs[i].A), uint32(qs[i].B)}
	}
	return b.Resolve(qs, p, now, pol)
}

// slotQueries builds one query without identity per pair.
func slotQueries(pairs [][2]int) []Query {
	qs := make([]Query, len(pairs))
	for i, pr := range pairs {
		qs[i] = Query{A: pr[0], B: pr[1]}
	}
	return qs
}
