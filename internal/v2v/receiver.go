package v2v

import (
	"sort"

	"rups/internal/obs"
	"rups/internal/trajectory"
)

// Receiver is the receive half of the reliable sync protocol, factored out
// of Session so transports other than the simulated link can reuse it: it
// consumes raw DATA frames (any order, any loss, any duplication) and
// maintains a contiguous, bit-exact copy of the sender's trajectory prefix
// plus the cumulative-ack state the sender's go-back-N window needs.
//
// The receiver also owns the restart handshake. Every sender session has an
// epoch (0 for legacy peers); the receiver locks onto the first epoch it
// sees and, when a frame arrives under a *different* epoch, discards its
// entire reconstruction and resyncs from mark 0. Without this, a sender
// that restarts with fresh sequence state wedges forever: the receiver's
// cumulative ack points past marks the new sender never transmitted, so
// the sender waits for acks that can only move backwards — which the
// protocol (correctly) never allows.
//
// Not safe for concurrent use; callers serialize Offer with reads.
type Receiver struct {
	copy  *trajectory.Aware
	width int
	frags map[int]*fragBuf
	held  map[int]heldChunk

	// epoch is the sender session epoch this reconstruction belongs to;
	// epochSet distinguishes "no frame seen yet" from a legacy epoch-0
	// peer, so the first frame adopts its epoch without counting a reset.
	epoch    uint32
	epochSet bool
	resets   uint64

	ackDue  bool
	applied int // chunks applied across all epochs, exposed for tests

	// Telemetry handle cached once per the obs discipline; View.Get inside
	// Offer would cost an atomic per frame.
	rec *obs.Recorder

	// lastRef is the causal hook of the newest applied chunk (see
	// Session.TraceRef). Cleared on an epoch reset: the old sender's spans
	// are not this reconstruction's ancestry.
	lastRef obs.TraceRef
}

// NewReceiver builds an empty receiver reconstructing a trajectory of the
// given channel width.
func NewReceiver(width int) *Receiver {
	return &Receiver{
		copy:  trajectory.NewAwareWidth(trajectory.Geo{}, width),
		width: width,
		frags: make(map[int]*fragBuf),
		held:  make(map[int]heldChunk),
		rec:   obs.ActiveRecorder(),
	}
}

// maxPending caps the partial reassemblies and held chunks a receiver
// buffers: twice the default window, room for a full window in flight plus
// the regrouped retransmissions of a go-back. A frame starting a new chunk
// beyond the cap is dropped — the sender retransmits it once the gap
// before it fills — except the chunk starting at the copy's end, which is
// always accepted, so a full buffer can delay a sync but never wedge it.
// With parseFrame's per-frame size bound, a receiver therefore buffers at
// most (maxPending+1) · trajectory.MaxChunkSize(trajectory.MaxChunkMarks,
// width) bytes, whatever the frames claim.
const maxPending = 2 * defaultWindow

// Copy returns the reconstruction: always a contiguous, bit-exact prefix
// of the sender's trajectory under the current epoch.
func (r *Receiver) Copy() *trajectory.Aware { return r.copy }

// Applied returns the number of chunks applied over the receiver's
// lifetime (resets do not zero it).
func (r *Receiver) Applied() int { return r.applied }

// Resets returns how many epoch resyncs the receiver has performed.
func (r *Receiver) Resets() uint64 { return r.resets }

// Epoch returns the sender epoch the reconstruction currently tracks
// (0 before any frame arrives, and for legacy extension-free peers).
func (r *Receiver) Epoch() uint32 { return r.epoch }

// TraceRef returns the causal hook of the newest applied chunk; zero while
// no traced chunk has been applied under the current epoch.
func (r *Receiver) TraceRef() obs.TraceRef { return r.lastRef }

// AckDue reports whether an intact DATA frame has arrived since the last
// TakeAckDue — the "emit a beacon this round" signal.
func (r *Receiver) AckDue() bool { return r.ackDue }

// TakeAckDue consumes the ack-due flag, returning its prior value.
func (r *Receiver) TakeAckDue() bool {
	due := r.ackDue
	r.ackDue = false
	return due
}

// AckBytes encodes the cumulative-ack beacon for the current state: the
// contiguous mark count, stamped with the epoch it was reconstructed
// under so a restarted sender can discard pre-restart beacons.
func (r *Receiver) AckBytes() []byte {
	return ackFrameBytes(r.copy.Len(), r.epoch)
}

// Offer consumes one raw frame. Malformed, corrupt, duplicate, and non-DATA
// frames are counted and dropped; intact chunks are reassembled, admitted
// in order, and buffered when ahead of a gap. Returns true when the frame
// was an intact DATA frame (whether or not it advanced the copy).
func (r *Receiver) Offer(raw []byte) bool {
	tel := syncTel.Get()
	fr, err := parseFrame(raw)
	if err != nil || fr.typ != frameData || fr.chans != r.width {
		if tel != nil {
			tel.rejected.Inc()
		}
		return false
	}
	if fr.epoch != r.epoch {
		if fr.epoch < r.epoch {
			// A straggler from a dead epoch — late, reordered, or
			// duplicated in flight across the restart. Epochs increase
			// monotonically per restart, so an older one is always stale;
			// acting on it would flap the reconstruction back and forth
			// between incarnations.
			if tel != nil {
				tel.rejected.Inc()
			}
			return false
		}
		if r.epochSet || r.copy.Len() > 0 || !r.Idle() {
			// The peer restarted: everything reconstructed belongs to a
			// dead epoch. Resync from nothing rather than acking marks the
			// new sender never sent.
			r.reset(tel)
		}
		r.epoch = fr.epoch
	}
	r.epochSet = true
	// Any intact data frame triggers an ack: that is what heals lost acks
	// (the sender retransmits, the receiver re-acks).
	r.ackDue = true
	if fr.from+fr.nMarks <= r.copy.Len() {
		if tel != nil {
			tel.dupSuppressed.Inc()
		}
		return true
	}
	fb := r.frags[fr.from]
	if fb == nil && fr.from != r.copy.Len() && len(r.frags)+len(r.held) >= maxPending {
		if tel != nil {
			tel.rejected.Inc()
		}
		return true
	}
	if fb == nil || fb.total != fr.total || fb.nFrags != fr.nFrags ||
		fb.nMarks != fr.nMarks || fb.chans != fr.chans {
		// First fragment of this chunk — or a retransmission with a
		// different layout (the sender's go-back may regroup marks), which
		// supersedes any stale partial reassembly.
		fb = &fragBuf{
			nMarks: fr.nMarks, chans: fr.chans, nFrags: fr.nFrags,
			total: fr.total,
			have:  make([]bool, fr.nFrags),
			buf:   make([]byte, fr.total),
		}
		r.frags[fr.from] = fb
	}
	if fr.ref.Trace != 0 {
		// Retransmitted fragments re-stamp the chunk with their own send
		// span; the chunk stitches under whichever transmission completed
		// it last.
		fb.ref = fr.ref
	}
	if fr.offset+len(fr.payload) > fb.total || fb.have[fr.fragIdx] {
		if fb.have[fr.fragIdx] && tel != nil {
			tel.dupSuppressed.Inc()
		}
		return true
	}
	copy(fb.buf[fr.offset:], fr.payload)
	fb.have[fr.fragIdx] = true
	fb.got++
	if fb.got < fb.nFrags {
		return true
	}
	delete(r.frags, fr.from)
	// The reassemble span hangs under the sender's chunk-send span via the
	// wire-carried ref — the first receiver-side stage of the cross-vehicle
	// trace. Inert when untraced or tracing is off.
	rsp := r.rec.StartChild(fb.ref.Trace, fb.ref.Parent, "reassemble")
	rsp.Arg = int64(fr.from)
	c, err := trajectory.ParseChunk(fb.buf)
	rsp.End()
	if err != nil || c.From != fr.from || len(c.Marks) != fb.nMarks || c.Chans() != r.width {
		if tel != nil {
			tel.rejected.Inc()
		}
		return true
	}
	before := r.copy.Len()
	r.admitChunk(c, fb.ref, tel)
	if r.copy.Len() > before {
		// Drop partial reassemblies of chunks another transmission already
		// completed — they will never finish, their remaining fragments
		// were superseded.
		for k, pf := range r.frags {
			if k+pf.nMarks <= r.copy.Len() {
				delete(r.frags, k)
			}
		}
	}
	return true
}

// reset discards the reconstruction for an epoch change.
func (r *Receiver) reset(tel *syncTelemetry) {
	r.copy = trajectory.NewAwareWidth(trajectory.Geo{}, r.width)
	r.frags = make(map[int]*fragBuf)
	r.held = make(map[int]heldChunk)
	r.lastRef = obs.TraceRef{}
	r.resets++
	if tel != nil {
		tel.epochResets.Inc()
	}
}

// admitChunk applies a reassembled chunk if it extends the contiguous
// prefix, holds it if it is ahead of a gap, and then drains any held
// chunks the application unblocked.
func (r *Receiver) admitChunk(c trajectory.Chunk, ref obs.TraceRef, tel *syncTelemetry) {
	if c.From+len(c.Marks) <= r.copy.Len() {
		if tel != nil {
			tel.dupSuppressed.Inc()
		}
		return
	}
	if c.From > r.copy.Len() {
		r.held[c.From] = heldChunk{c: c, ref: ref}
		if tel != nil {
			tel.chunksHeld.Inc()
		}
		return
	}
	r.applyChunk(c, ref, tel)
	r.drainHeld(tel)
}

// applyChunk appends the marks of c past the copy's end — c must start at
// or before the end and reach beyond it — recording the admit span on the
// chunk's cross-vehicle trace and advancing lastRef so downstream resolves
// stitch under this admission.
func (r *Receiver) applyChunk(c trajectory.Chunk, ref obs.TraceRef, tel *syncTelemetry) {
	asp := r.rec.StartChild(ref.Trace, ref.Parent, "admit_chunk")
	asp.Arg = int64(c.From)
	skip := r.copy.Len() - c.From // overlapping marks already present
	r.copy.AppendCellColumns(c.Marks[skip:], c.Cells[skip:], len(c.Marks))
	asp.End()
	if ref.Trace != 0 {
		r.lastRef = obs.TraceRef{Trace: ref.Trace, Parent: asp.ID()}
	}
	r.applied++
	if tel != nil {
		tel.chunksApplied.Inc()
	}
}

// drainHeld applies buffered out-of-order chunks that have become
// contiguous. Keys are scanned in order so metric counts stay
// deterministic.
func (r *Receiver) drainHeld(tel *syncTelemetry) {
	for {
		keys := make([]int, 0, len(r.held))
		for k := range r.held {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		progressed := false
		for _, k := range keys {
			h := r.held[k]
			if h.c.From > r.copy.Len() {
				continue
			}
			delete(r.held, k)
			if h.c.From+len(h.c.Marks) <= r.copy.Len() {
				if tel != nil {
					tel.dupSuppressed.Inc()
				}
				continue
			}
			r.applyChunk(h.c, h.ref, tel)
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

// Idle reports whether the receiver has no partial reassemblies or held
// chunks pending — everything offered has either been applied or dropped.
func (r *Receiver) Idle() bool {
	return len(r.frags) == 0 && len(r.held) == 0
}
