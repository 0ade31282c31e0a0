// Package link simulates the urban DSRC channel the RUPS exchange runs
// over (paper §V-B: 802.11p WAVE Short Messages, 1400 B payloads, ~4 ms
// per-packet round trip) with the impairments an urban deployment actually
// sees: independent per-frame loss, bursty outages from occlusion
// (Gilbert–Elliott), reordering, duplication, bit corruption, and bounded
// delivery jitter — all seeded and fully deterministic, so a lossy run
// replays bit-for-bit from its seed.
//
// Time is modelled in *rounds*: one round is one WSM round-trip slot
// (v2v.PacketRTT ≈ 4 ms of air time). A frame sent in round r is
// receivable no earlier than round r+Delay, later under jitter or
// reordering. The round clock belongs to the caller (the sync protocol
// steps it); the channel only schedules deliveries on it.
//
// The channel moves opaque frames of at most MTU bytes — the WSM payload
// bound is enforced here, fragmentation is the sender's job (the reliable
// sync protocol in internal/v2v fragments its chunks to fit). It also
// counts what it carried and the airtime that took (Usage), which is how
// the evaluation measures channel load on the link the exchange runs over.
package link

import (
	"errors"
	"fmt"
	"sort"

	"rups/internal/noise"
)

// DefaultMTU is the usable payload of one WAVE Short Message, bytes
// (matches v2v.WSMPayload).
const DefaultMTU = 1400

// ErrFrameTooLarge is returned by Send for frames over the MTU: the
// 802.11p payload bound is physical, not advisory.
var ErrFrameTooLarge = errors.New("link: frame exceeds MTU")

// Params is the channel fault model. The zero value (plus a seed) is a
// perfect channel: no loss, no reordering, no corruption, one round of
// delivery delay.
type Params struct {
	// Seed addresses every stochastic decision; two channels with the same
	// seed and salt replay identically.
	Seed uint64
	// Loss is the i.i.d. per-frame drop probability in the good state.
	Loss float64
	// BurstEnter/BurstExit drive the Gilbert–Elliott two-state burst
	// model, evaluated once per frame: in the good state the channel
	// enters the bad (occluded) state with probability BurstEnter; in the
	// bad state it recovers with probability BurstExit. While bad, frames
	// drop with probability BurstLoss (defaulted to 1 — a full outage —
	// when BurstEnter is set and BurstLoss is not). BurstExit == 0 with
	// BurstEnter > 0 models a permanent occlusion.
	BurstEnter, BurstExit, BurstLoss float64
	// Reorder is the probability a delivered frame is held back extra
	// rounds (1..ReorderSpan), letting later frames overtake it.
	Reorder float64
	// ReorderSpan bounds the extra hold-back, rounds (default 4).
	ReorderSpan int
	// Duplicate is the probability a delivered frame arrives twice (the
	// second copy on its own delay roll).
	Duplicate float64
	// Corrupt is the probability one payload byte of a delivered frame is
	// bit-flipped in flight. Receivers are expected to checksum.
	Corrupt float64
	// Delay is the base delivery delay in rounds (default 1: a frame sent
	// this round is receivable next round).
	Delay int
	// Jitter adds 0..Jitter extra delay rounds, uniform.
	Jitter int
	// MTU is the frame size bound, bytes (default DefaultMTU).
	MTU int
}

// withDefaults fills the zero-value defaults.
func (p Params) withDefaults() Params {
	if p.MTU == 0 {
		p.MTU = DefaultMTU
	}
	if p.Delay == 0 {
		p.Delay = 1
	}
	if p.ReorderSpan == 0 {
		p.ReorderSpan = 4
	}
	if p.BurstEnter > 0 && p.BurstLoss <= 0 {
		p.BurstLoss = 1
	}
	return p
}

// The airtime model: 6 Mbit/s DSRC moves about 600 kB/s of payload once
// protocol overhead is paid, and every frame also costs a fixed 0.8 ms of
// preamble, inter-frame space and link-layer acknowledgement.
const (
	// RateBytesPerSec is the channel's effective payload throughput.
	RateBytesPerSec = 600_000
	// FrameOverheadSec is the fixed airtime of one frame.
	FrameOverheadSec = 0.0008
)

// Airtime returns the seconds one frame of n bytes occupies the channel.
func Airtime(n int) float64 { return float64(n)/RateBytesPerSec + FrameOverheadSec }

// Usage is what a channel carried: every frame offered within the MTU,
// dropped ones included — a lost frame still occupied the air.
type Usage struct {
	Frames int
	Bytes  int
}

// Plus returns the combined usage of u and v.
func (u Usage) Plus(v Usage) Usage {
	return Usage{Frames: u.Frames + v.Frames, Bytes: u.Bytes + v.Bytes}
}

// Airtime returns the seconds the frames occupied the channel, back to
// back: the sum of Airtime over them.
func (u Usage) Airtime() float64 {
	return float64(u.Bytes)/RateBytesPerSec + float64(u.Frames)*FrameOverheadSec
}

// decision salts: each stochastic choice draws from its own stream so the
// fault processes are independent.
const (
	saltDrop uint64 = iota + 0xD5C0
	saltBurst
	saltCorrupt
	saltJitter
	saltReorder
	saltDup
)

// Channel is one direction of a point-to-point DSRC link with the fault
// model applied per frame. It is not safe for concurrent use — the
// simulation steps it from one goroutine, which is also what keeps runs
// deterministic.
type Channel struct {
	p    Params
	salt uint64 // distinguishes channels sharing one seed
	bad  bool   // Gilbert–Elliott state
	seq  uint64 // frames offered so far, the decision address
	used Usage

	inflight []delivery
}

// delivery is a frame scheduled for arrival.
type delivery struct {
	at      int    // first round the frame is receivable
	seq     uint64 // stable tiebreak within a round
	payload []byte
}

// New builds a channel. salt distinguishes channels sharing one seed (the
// two directions of a pair, the many pairs of a convoy).
func New(p Params, salt uint64) *Channel {
	return &Channel{p: p.withDefaults(), salt: salt}
}

// SetParams swaps the fault model for future sends — the healing (or
// degradation) knob chaos scenarios flip mid-run. In-flight frames and the
// burst state are kept.
func (c *Channel) SetParams(p Params) { c.p = p.withDefaults() }

// Usage reports what the channel has carried so far.
func (c *Channel) Usage() Usage { return c.used }

// Pending reports frames in flight (scheduled but not yet received).
func (c *Channel) Pending() int { return len(c.inflight) }

// roll draws the deterministic uniform for decision salt at the current
// frame, with an extra key for multi-draw decisions.
func (c *Channel) roll(salt, k uint64) float64 {
	return noise.Uniform(c.p.Seed, c.salt, c.seq, salt, k)
}

// Send offers one frame to the channel at the given round. Oversized
// frames return ErrFrameTooLarge; everything else "succeeds" from the
// sender's point of view — DSRC has no link-layer ack, so drops are
// silent, which is exactly what the reliable sync protocol above exists to
// survive.
func (c *Channel) Send(round int, frame []byte) error {
	if len(frame) > c.p.MTU {
		if t := linkTel.Get(); t != nil {
			t.oversized.Inc()
		}
		return fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, len(frame), c.p.MTU)
	}
	c.seq++
	c.used.Frames++
	c.used.Bytes += len(frame)
	tel := linkTel.Get()
	if tel != nil {
		tel.sent.Inc()
		tel.sentBytes.Add(uint64(len(frame)))
	}

	// Gilbert–Elliott state transition, then the state's drop roll.
	if c.bad {
		if c.roll(saltBurst, 0) < c.p.BurstExit {
			c.bad = false
		}
	} else if c.roll(saltBurst, 0) < c.p.BurstEnter {
		c.bad = true
	}
	dropP := c.p.Loss
	if c.bad {
		dropP = c.p.BurstLoss
	}
	if c.roll(saltDrop, 0) < dropP {
		if tel != nil {
			tel.dropped.Inc()
		}
		return nil
	}

	// The frame survives: clone it (senders keep their buffers for
	// retransmission; in-flight corruption must not reach back into them),
	// maybe corrupt, schedule, maybe duplicate.
	payload := append([]byte(nil), frame...)
	if len(payload) > 0 && c.roll(saltCorrupt, 0) < c.p.Corrupt {
		pos := int(c.roll(saltCorrupt, 1) * float64(len(payload)))
		bit := byte(1) << uint(c.roll(saltCorrupt, 2)*8)
		payload[pos] ^= bit
		if tel != nil {
			tel.corrupted.Inc()
		}
	}
	c.schedule(round, payload, tel, 0)
	if c.roll(saltDup, 0) < c.p.Duplicate {
		if tel != nil {
			tel.duplicated.Inc()
		}
		c.schedule(round, payload, tel, 1)
	}
	return nil
}

// schedule queues one delivery of payload with its delay roll; copy
// distinguishes the duplicate's delay stream from the original's.
func (c *Channel) schedule(round int, payload []byte, tel *linkTelemetry, copy uint64) {
	delay := c.p.Delay
	if c.p.Jitter > 0 {
		delay += int(c.roll(saltJitter, copy) * float64(c.p.Jitter+1))
	}
	if c.roll(saltReorder, copy) < c.p.Reorder {
		delay += 1 + int(c.roll(saltReorder, copy+2)*float64(c.p.ReorderSpan))
		if tel != nil {
			tel.reordered.Inc()
		}
	}
	c.inflight = append(c.inflight, delivery{at: round + delay, seq: c.seq<<1 | copy, payload: payload})
}

// Receive returns every frame receivable at the given round, in arrival
// order (delivery round, then send order within it), and removes them from
// flight.
func (c *Channel) Receive(round int) [][]byte {
	due := 0
	for _, d := range c.inflight {
		if d.at <= round {
			due++
		}
	}
	if due == 0 {
		return nil
	}
	arrived := make([]delivery, 0, due)
	rest := c.inflight[:0]
	for _, d := range c.inflight {
		if d.at <= round {
			arrived = append(arrived, d)
		} else {
			rest = append(rest, d)
		}
	}
	c.inflight = rest
	sort.Slice(arrived, func(i, j int) bool {
		if arrived[i].at != arrived[j].at {
			return arrived[i].at < arrived[j].at
		}
		return arrived[i].seq < arrived[j].seq
	})
	out := make([][]byte, len(arrived))
	for i, d := range arrived {
		out[i] = d.payload
	}
	if t := linkTel.Get(); t != nil {
		t.delivered.Add(uint64(len(out)))
	}
	return out
}
