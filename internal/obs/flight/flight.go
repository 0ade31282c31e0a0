// Package flight is the repo's black-box recorder: a lock-free fixed-size
// ring of small structured events (staleness transitions, go-back-N
// retransmits and RTO backoffs, queue-depth high-water marks, refused and
// expired resolves) that runs continuously
// and costs nothing when disabled. Unlike the obs span ring — which traces
// *how long* pipeline stages took — the flight ring records *what state
// changes happened*, so when an anomaly fires (a refused pair, an SLO
// breach, a retransmit burst) the last N seconds of protocol history can
// be frozen and serialized to disk as a versioned capsule for offline
// replay by cmd/rups-obs.
//
// The ring follows the obs discipline: the nil *Ring is a valid no-op,
// the package default installs atomically, and hot loops must fetch the
// handle once outside the loop (rups-lint's obsdiscipline analyzer flags
// per-iteration flight.Active calls the same way it flags raw obs
// lookups). Emit is lock-free — one atomic add to claim a slot plus a
// per-slot seqlock — and allocation-free in both the enabled and disabled
// states.
//
// Timestamps are the *simulation* clock, passed by the caller: the
// recorder never reads wall time, which keeps lossy runs deterministic
// per seed and keeps the package honest under rups-lint's timedet
// analyzer.
package flight

import (
	"log"
	"math"
	"sync"
	"sync/atomic"
)

// floatBits/floatFrom are the slot packing for the simulation timestamp.
func floatBits(v float64) uint64 { return math.Float64bits(v) }
func floatFrom(b uint64) float64 { return math.Float64frombits(b) }

// Kind enumerates the structured event types the ring records. Values are
// stable wire constants — capsules store them raw, and readers must
// tolerate kinds they do not know (forward compatibility). Kinds 2–4 were
// the retired warm-start tracker's hit, demote and evict events: they are
// never reused, and older capsules holding them print as kind_<n>.
type Kind uint16

const (
	// KindStaleness is a per-pair freshness transition: V1 the new
	// core.Freshness class, V2 the previous one.
	KindStaleness Kind = 1
	// KindRetransmit is a go-back-N retransmission run: V1 the mark the
	// sender rolled back to, V2 the cumulative timeout-run count.
	KindRetransmit Kind = 5
	// KindRTOBackoff is an RTO doubling: V1 the new RTO in rounds, V2 the
	// configured cap.
	KindRTOBackoff Kind = 6
	// KindQueueHighwater is a new engine queue-depth peak in V1.
	KindQueueHighwater Kind = 7
	// KindRefused is a pair resolution refused by the staleness policy.
	KindRefused Kind = 8
	// KindExpired is a pair context crossing the expired threshold; V1 is
	// the context age in milliseconds.
	KindExpired Kind = 9
	// KindSLOBreach is a served objective exhausting its fast burn
	// window: V1 the burn rate ×1000, V2 the objective index.
	KindSLOBreach Kind = 10
	// KindEvicted is a per-vehicle snapshot evicted from a resolution
	// service's resident set: A the vehicle id, V1 the bytes released,
	// V2 nonzero when the eviction was staleness-driven (expiry) rather
	// than LRU pressure.
	KindEvicted Kind = 11
	// KindDrain marks a service drain transition: V1 0 when the drain
	// begins, 1 when the last admitted query has been flushed.
	KindDrain Kind = 12
	// KindShed is a pair query shed because its deadline expired before
	// resolution started; V1 is how far past the deadline (milliseconds)
	// the shed decision ran, V2 nonzero when shed at task start rather
	// than at admission.
	KindShed Kind = 13
)

// kindNames maps known kinds to their capsule/JSON names.
var kindNames = map[Kind]string{
	KindStaleness:      "staleness",
	KindRetransmit:     "retransmit",
	KindRTOBackoff:     "rto_backoff",
	KindQueueHighwater: "queue_highwater",
	KindRefused:        "refused",
	KindExpired:        "expired",
	KindSLOBreach:      "slo_breach",
	KindEvicted:        "evicted",
	KindDrain:          "drain",
	KindShed:           "shed",
}

// String names known kinds and renders unknown ones as kind_<n> so
// capsules from newer writers still print.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "kind_" + itoa(uint64(k))
}

// itoa is a tiny allocation-predictable uint formatter (strconv would be
// fine here, but this keeps String dependency-free for the capsule path).
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Event is one flight-ring record. A and B identify the vehicle pair the
// event concerns (-1 when not pair-scoped); V1/V2 are kind-specific small
// values. T is simulation seconds. Seq is assigned by Emit.
type Event struct {
	Seq  uint64  `json:"seq"`
	T    float64 `json:"t"`
	Kind Kind    `json:"kind"`
	A    int32   `json:"a"`
	B    int32   `json:"b"`
	V1   int64   `json:"v1,omitempty"`
	V2   int64   `json:"v2,omitempty"`
}

// slot is one ring cell guarded by a seqlock version: ver is 2·seq+1
// while the writer owning seq is copying in, 2·seq+2 once the event is
// published. A reader accepts a slot only when it observes the published
// version before and after its copy. The event body is packed into
// atomic words — w[0] the float64 time bits, w[1] the packed A/B pair,
// w[2] the kind, w[3]/w[4] the values — so the copy is a data race for
// neither the race detector nor the memory model; the validated version
// itself encodes Seq, which therefore needs no word of its own.
type slot struct {
	ver atomic.Uint64
	w   [5]atomic.Uint64
}

func (s *slot) store(ev Event) {
	s.w[0].Store(floatBits(ev.T))
	//lint:ignore widenconv deliberate two's-complement packing; load() undoes it bit-exactly
	s.w[1].Store(uint64(uint32(ev.A))<<32 | uint64(uint32(ev.B)))
	s.w[2].Store(uint64(ev.Kind))
	s.w[3].Store(uint64(ev.V1))
	s.w[4].Store(uint64(ev.V2))
}

func (s *slot) load(seq uint64) Event {
	ab := s.w[1].Load()
	return Event{
		Seq:  seq,
		T:    floatFrom(s.w[0].Load()),
		Kind: Kind(s.w[2].Load()),
		//lint:ignore widenconv deliberate two's-complement unpacking of store()'s word
		A: int32(uint32(ab >> 32)),
		//lint:ignore widenconv deliberate two's-complement unpacking of store()'s word
		B:  int32(uint32(ab)),
		V1: int64(s.w[3].Load()),
		V2: int64(s.w[4].Load()),
	}
}

// Config tunes a Ring's dump behavior. Zero values take defaults.
type Config struct {
	// Dir is where anomaly capsules are written. Empty disables dumping
	// (anomalies still count, Emit still records).
	Dir string
	// WindowSec is how many trailing simulation-seconds a capsule
	// freezes (default 30).
	WindowSec float64
	// CooldownEvents is the minimum event-sequence distance between two
	// dumps (default 1024) — a deterministic rate limit, deliberately not
	// wall-clock-based, so a storm of anomalies produces one capsule, not
	// one per event.
	CooldownEvents uint64
}

func (c Config) withDefaults() Config {
	if c.WindowSec <= 0 {
		c.WindowSec = 30
	}
	if c.CooldownEvents == 0 {
		c.CooldownEvents = 1024
	}
	return c
}

// DefaultRingSize is the event capacity NewRing uses for size <= 0.
const DefaultRingSize = 8192

// Ring is the lock-free flight recorder. Emit may be called from any
// goroutine; Snapshot and Anomaly are best-effort consistent (a slot being
// overwritten mid-read is skipped, never torn). The nil *Ring no-ops
// everywhere, which is the disabled fast path.
type Ring struct {
	cfg  Config
	seq  atomic.Uint64
	slot []slot

	// Dump bookkeeping, mutated only under dumpMu; Emit never touches it.
	dumpMu   sync.Mutex
	dumps    atomic.Uint64
	lastDump atomic.Uint64 // event count at the last dump; 0 = never
	// (the trigger itself is emitted first, so a dump's count is ≥ 1)

	// dumpDead flips true on the first capsule-write failure: an
	// unwritable or full capsule directory disables dumping for the rest
	// of the run (events still record, anomalies still count) instead of
	// re-erroring on every anomaly. Guarded by dumpMu.
	dumpDead bool
}

// NewRing builds a flight recorder holding the last size events.
func NewRing(size int, cfg Config) *Ring {
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Ring{cfg: cfg.withDefaults(), slot: make([]slot, size)}
}

// Emit records ev (Seq is overwritten with the claimed sequence number,
// which is also returned — 0 from the nil ring). Lock-free and
// allocation-free; the nil ring ignores the event.
func (r *Ring) Emit(ev Event) uint64 {
	if r == nil {
		return 0
	}
	seq := r.seq.Add(1) - 1
	s := &r.slot[seq%uint64(len(r.slot))]
	s.ver.Store(2*seq + 1)
	s.store(ev)
	s.ver.Store(2*seq + 2)
	return seq
}

// Total reports how many events were ever emitted (0 for the nil ring).
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Snapshot returns the currently held events oldest-first. Slots being
// concurrently overwritten are skipped, so the result is a consistent —
// possibly slightly gappy — view of the recent past. Nil from the nil
// ring.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	n := r.seq.Load()
	size := uint64(len(r.slot))
	lo := uint64(0)
	if n > size {
		lo = n - size
	}
	out := make([]Event, 0, n-lo)
	for seq := lo; seq < n; seq++ {
		s := &r.slot[seq%size]
		want := 2*seq + 2
		if s.ver.Load() != want {
			continue // unwritten, mid-write, or already lapped
		}
		ev := s.load(seq)
		if s.ver.Load() != want {
			continue // torn by a concurrent lap
		}
		out = append(out, ev)
	}
	return out
}

// Anomaly records trigger and — if a capsule directory is configured and
// the deterministic cooldown has elapsed — freezes the trailing WindowSec
// of events into a capsule on disk. It returns the capsule path ("" when
// no dump happened) and any serialization error. Safe for concurrent use;
// concurrent anomalies inside one cooldown window produce one capsule.
func (r *Ring) Anomaly(reason string, trigger Event) (string, error) {
	if r == nil {
		return "", nil
	}
	trigger.Seq = r.Emit(trigger)
	if r.cfg.Dir == "" {
		return "", nil
	}
	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()
	if r.dumpDead {
		return "", nil
	}
	now := r.seq.Load()
	if last := r.lastDump.Load(); last != 0 && now-last < r.cfg.CooldownEvents {
		return "", nil
	}
	r.lastDump.Store(now)
	evs := r.Snapshot()
	// Freeze only the trailing window around the trigger's sim time.
	cut := trigger.T - r.cfg.WindowSec
	kept := evs[:0]
	for _, ev := range evs {
		if ev.T >= cut {
			kept = append(kept, ev)
		}
	}
	n := r.dumps.Add(1)
	return r.finishWrite(writeCapsule(r.cfg.Dir, n, reason, trigger, r.cfg.WindowSec, kept))
}

// finishWrite post-processes a capsule write under dumpMu: the first
// failure logs once and disables dumping for the rest of the run — a full
// or unwritable capsule directory must degrade the black box to
// counting-only, not error on every subsequent anomaly. The failed
// attempt's error is still returned to its caller.
func (r *Ring) finishWrite(path string, err error) (string, error) {
	if err != nil && !r.dumpDead {
		r.dumpDead = true
		r.dumps.Add(^uint64(0)) // the dump did not happen; undo the count
		log.Printf("flight: capsule write failed, disabling capsule dumps for this run: %v", err)
	}
	if err != nil {
		return "", err
	}
	return path, nil
}

// Dump freezes the entire held ring into a capsule unconditionally — no
// cooldown, no window cut — for explicit operator requests like rups-sim's
// -dump-flight-on-exit. Returns "" when no directory is configured or the
// ring is nil.
func (r *Ring) Dump(reason string, now float64) (string, error) {
	if r == nil || r.cfg.Dir == "" {
		return "", nil
	}
	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()
	if r.dumpDead {
		return "", nil
	}
	r.lastDump.Store(r.seq.Load())
	evs := r.Snapshot()
	n := r.dumps.Add(1)
	trigger := Event{T: now}
	if len(evs) > 0 {
		trigger.Seq = evs[len(evs)-1].Seq
	}
	// WindowSec 0 in the meta marks a full-ring dump, not a windowed one.
	return r.finishWrite(writeCapsule(r.cfg.Dir, n, reason, trigger, 0, evs))
}

// Dumps reports how many capsules this ring has written.
func (r *Ring) Dumps() uint64 {
	if r == nil {
		return 0
	}
	return r.dumps.Load()
}

// active is the process-wide default ring, installed atomically like the
// obs registry/recorder defaults.
var active atomic.Pointer[Ring]

// Enable installs r as the process default (nil disables).
func Enable(r *Ring) { active.Store(r) }

// Disable removes the default ring; Active returns nil and emission sites
// fall back to the nil fast path.
func Disable() { active.Store(nil) }

// Active returns the enabled flight ring, or nil when recording is off.
// Hot loops must call this once and cache the handle — obsdiscipline
// enforces it.
func Active() *Ring { return active.Load() }
