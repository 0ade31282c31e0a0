package serve

import (
	"container/list"
	"sync"

	"rups/internal/core"
	"rups/internal/obs/flight"
	"rups/internal/trajectory"
	"rups/internal/v2v"
)

// vehicleEntry is one vehicle's resident context: the v2v receiver
// reconstructing its trajectory from streamed deltas, plus the bookkeeping
// the eviction ladder needs. The entry outlives its connection — a vehicle
// that disconnects keeps its context resident (queries against it still
// answer) until memory pressure or staleness expires it.
type vehicleEntry struct {
	// mu serializes frame application (Receiver is not concurrency-safe)
	// with query-time snapshotting.
	mu sync.Mutex
	rx *v2v.Receiver

	id uint32
	// lastTouch is the server-clock time of the last applied frame or
	// query touch; drives LRU ordering and the staleness expiry sweep.
	lastTouch float64
	// bytes is the entry's resident-size estimate charged against the
	// table budget, refreshed after every applied frame.
	bytes int64
	elem  *list.Element
	// kick disconnects the connection currently feeding this vehicle, set
	// while one is attached. Called when the entry is evicted live: the
	// client reconnects and restreams under a fresh epoch, which is the
	// only way a re-admitted vehicle can resync (a same-epoch resume would
	// wedge on acks for marks the server no longer holds). Must not take
	// table.mu. kickGen identifies the attaching connection so a stale
	// conn's detach cannot clear a hook a later conn installed.
	kick    func()
	kickGen uint64
}

// snapshot returns an immutable copy-on-write snapshot of the vehicle's
// reconstruction, safe to resolve against while frames keep applying.
func (e *vehicleEntry) snapshot() *trajectory.Aware {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rx.Copy().Snapshot()
}

// markGeoBytes is the resident size of one trajectory.GeoMark (theta, t).
const markGeoBytes = 16

// residentBytes estimates an entry's footprint: the GeoMark per mark, the
// power tiles the cells are stored in — a trajectory allocates a whole
// width × ChunkMarks tile as soon as a mark lands in it, so a partly
// filled tile costs as much as a full one — and the per-channel tally
// (trajectory.TallyBytes) each whole tile carries once a snapshot seals
// it. Deliberately an estimate — the budget bounds growth, it is not an
// allocator.
func residentBytes(marks, width int) int64 {
	m, w := int64(marks), int64(width)
	tiles := (m + trajectory.ChunkMarks - 1) / trajectory.ChunkMarks
	sealed := m / trajectory.ChunkMarks
	return m*markGeoBytes + tiles*w*trajectory.ChunkMarks*trajectory.CellBytes + sealed*w*trajectory.TallyBytes
}

// vtable is the resident-vehicle table: an LRU over vehicleEntry under a
// hard byte budget, with a staleness rung on top. Two forces evict:
//
//   - memory pressure: when resident bytes exceed the budget, the
//     least-recently-touched vehicles are dropped until back under;
//   - expiry: a vehicle whose context has aged past the staleness
//     policy's expiry bound is dropped by the sweep even with room to
//     spare — the engine would refuse to resolve against it anyway, so
//     keeping it buys nothing.
type vtable struct {
	mu      sync.Mutex
	byID    map[uint32]*vehicleEntry
	lru     *list.List // front = most recently touched
	bytes   int64
	budget  int64 // <= 0 means unbounded
	pol     core.Staleness
	nextGen uint64
}

func newVTable(budget int64, pol core.Staleness) *vtable {
	return &vtable{
		byID:   make(map[uint32]*vehicleEntry),
		lru:    list.New(),
		budget: budget,
		pol:    pol,
	}
}

// attach returns the entry for id, creating it if absent, installs kick as
// the owning connection's disconnect hook, and touches the entry. The
// returned generation token identifies this attachment for detach. A
// second connection HELLOing the same vehicle steals the entry; the
// previous connection's hook is dropped (its frames now race the thief's,
// but both feed the same receiver under the entry lock, and epochs
// arbitrate).
func (t *vtable) attach(id uint32, width int, kick func(), now float64) (*vehicleEntry, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.byID[id]
	if e == nil {
		e = &vehicleEntry{id: id, rx: v2v.NewReceiver(width)}
		e.elem = t.lru.PushFront(e)
		t.byID[id] = e
		stel().residentVeh.Set(int64(len(t.byID)))
	} else {
		t.lru.MoveToFront(e.elem)
	}
	t.nextGen++
	e.kick = kick
	e.kickGen = t.nextGen
	e.lastTouch = now
	return e, t.nextGen
}

// detach drops the connection hook when the conn owning id closes; the
// entry and its context stay resident. The generation token keeps a stale
// conn from clearing a hook a thief installed after stealing the vehicle.
func (t *vtable) detach(id uint32, gen uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.byID[id]; e != nil && e.kickGen == gen {
		e.kick = nil
	}
}

// get returns the entry for id, touching it, or nil when not resident.
func (t *vtable) get(id uint32, now float64) *vehicleEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.byID[id]
	if e != nil {
		t.lru.MoveToFront(e.elem)
		e.lastTouch = now
	}
	return e
}

// charge refreshes the entry's byte estimate after frames were applied,
// touches it, and evicts colder vehicles if the budget is now exceeded.
func (t *vtable) charge(e *vehicleEntry, now float64) {
	e.mu.Lock()
	nb := residentBytes(e.rx.Copy().Len(), e.rx.Copy().Width())
	e.mu.Unlock()
	t.mu.Lock()
	t.bytes += nb - e.bytes
	e.bytes = nb
	e.lastTouch = now
	t.lru.MoveToFront(e.elem)
	t.enforceLocked(now)
	tel := stel()
	tel.residentBytes.Set(t.bytes)
	tel.residentVeh.Set(int64(len(t.byID)))
	t.mu.Unlock()
}

// enforceLocked evicts from the LRU tail until resident bytes fit the
// budget. The entry being charged may itself be evicted if it alone
// exceeds the budget and nothing colder remains.
func (t *vtable) enforceLocked(now float64) {
	if t.budget <= 0 {
		return
	}
	fl := flight.Active()
	for t.bytes > t.budget && t.lru.Len() > 0 {
		e := t.lru.Back().Value.(*vehicleEntry)
		t.evictLocked(e, now, false, fl)
	}
}

// sweepExpired drops every vehicle whose context age (server clock minus
// last touch) has passed the staleness policy's expiry bound. Returns the
// number evicted.
func (t *vtable) sweepExpired(now float64) int {
	if t.pol.ExpireAfterSec <= 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	fl := flight.Active()
	for el := t.lru.Back(); el != nil; {
		e := el.Value.(*vehicleEntry)
		el = el.Prev()
		if now-e.lastTouch > t.pol.ExpireAfterSec {
			t.evictLocked(e, now, true, fl)
			n++
		}
	}
	if n > 0 {
		tel := stel()
		tel.residentBytes.Set(t.bytes)
		tel.residentVeh.Set(int64(len(t.byID)))
	}
	return n
}

// evictLocked removes one entry: uncharges its bytes, kicks any live
// connection (the client reconnects and restreams under a fresh epoch),
// and records the eviction in metrics and the flight ring. The caller
// passes the ring handle so eviction loops look it up once.
func (t *vtable) evictLocked(e *vehicleEntry, now float64, expiry bool, fl *flight.Ring) {
	delete(t.byID, e.id)
	t.lru.Remove(e.elem)
	t.bytes -= e.bytes
	tel := stel()
	tel.evictions.Inc()
	v2 := int64(0)
	if expiry {
		tel.evictionsExpiry.Inc()
		v2 = 1
	}
	if fl != nil {
		fl.Emit(flight.Event{
			// The event's A field is 31-bit; masking keeps real-world
			// vehicle IDs intact and only folds the sign bit on synthetic
			// extremes.
			T: now, Kind: flight.KindEvicted, A: int32(e.id & 0x7fffffff),
			V1: e.bytes, V2: v2,
		})
	}
	if e.kick != nil {
		e.kick()
		e.kick = nil
	}
}

// stats returns resident vehicle count and bytes (for drain snapshots and
// tests).
func (t *vtable) stats() (vehicles int, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byID), t.bytes
}
