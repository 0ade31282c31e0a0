package v2v

import (
	"testing"

	"rups/internal/link"
	"rups/internal/obs"
)

// TestPeerRestartResync is the epoch handshake's regression test. A sender
// streams part of its trajectory, then "crashes" and restarts with fresh
// sequence state and different content under a new epoch. Without the
// handshake the surviving receiver's cumulative ack points past marks the
// new sender never transmitted and the transfer wedges (see the companion
// test below); with it, the receiver discards the dead incarnation's
// reconstruction and converges bit-exact on the new trajectory.
func TestPeerRestartResync(t *testing.T) {
	srcA := mkAware(31, 80)
	srcB := mkAware(32, 60) // the restarted sender's (different) trajectory
	data := link.New(link.Params{Seed: 3}, 0)
	ack := link.New(link.Params{Seed: 3}, 1)

	a := NewSession(srcA, data, ack, SyncConfig{Epoch: 1})
	rounds := runSync(a, 1e9, 5000)
	if !a.Quiescent() {
		t.Fatalf("pre-restart sync never settled after %d rounds", rounds)
	}
	assertBitExact(t, a.Copy(), srcA, srcA.Len())

	// Restart: fresh Session (sequence state zeroed), same channels, same
	// surviving receiver, next epoch.
	b := NewSession(srcB, data, ack, SyncConfig{Epoch: 2})
	b.rx = a.rx
	rounds = runSync(b, 1e9, 5000)
	if !b.Quiescent() {
		t.Fatalf("post-restart sync wedged after %d rounds (copy %d/%d)",
			rounds, b.Copy().Len(), srcB.Len())
	}
	assertBitExact(t, b.Copy(), srcB, srcB.Len())
	if got := b.rx.Resets(); got != 1 {
		t.Fatalf("receiver performed %d epoch resets, want exactly 1", got)
	}
	if got := b.rx.Epoch(); got != 2 {
		t.Fatalf("receiver tracks epoch %d, want 2", got)
	}
}

// TestPeerRestartSameEpochWedges documents the failure mode the handshake
// exists for: a restarted sender that does NOT bump its epoch (here both
// incarnations use the legacy epoch-0 wire format) never delivers its new
// trajectory — the receiver's stale cumulative ack teleports the fresh
// sender's window past marks it never sent, the session reports quiescence,
// and the copy silently remains the dead incarnation's data.
func TestPeerRestartSameEpochWedges(t *testing.T) {
	srcA := mkAware(31, 80)
	srcB := mkAware(32, 60)
	data := link.New(link.Params{Seed: 3}, 0)
	ack := link.New(link.Params{Seed: 3}, 1)

	a := NewSession(srcA, data, ack, SyncConfig{})
	runSync(a, 1e9, 5000)
	assertBitExact(t, a.Copy(), srcA, srcA.Len())

	b := NewSession(srcB, data, ack, SyncConfig{})
	b.rx = a.rx
	rounds := runSync(b, 1e9, 5000)
	if !b.Quiescent() {
		t.Fatalf("expected the wedged session to (falsely) quiesce, still busy at round %d", rounds)
	}
	// The copy still holds srcA's 80 marks; srcB's 60 were never applied.
	if b.Copy().Len() != srcA.Len() {
		t.Fatalf("copy holds %d marks, want the stale %d", b.Copy().Len(), srcA.Len())
	}
	if b.Copy().Geo.Marks[0] == srcB.Geo.Marks[0] {
		t.Fatal("copy unexpectedly matches the restarted sender; wedge no longer reproduces")
	}
	if b.rx.Resets() != 0 {
		t.Fatalf("same-epoch restart performed %d resets, want 0", b.rx.Resets())
	}
}

// TestReceiverDropsDeadEpochStragglers pins the anti-flap rule: once the
// receiver adopts epoch N, frames from epoch < N (reordered in flight
// across the restart) are rejected rather than resetting the
// reconstruction back to the dead incarnation.
func TestReceiverDropsDeadEpochStragglers(t *testing.T) {
	src := mkAware(33, 8)
	d := Delta{FromMark: 0, Marks: src.Geo.Marks[:8]}
	d.Power = make([][]float64, src.Width())
	for ch := range d.Power {
		d.Power[ch] = src.RowCopy(ch, 0, 8)
	}
	oldFrames := DataFrames(d, obs.TraceRef{}, 1)
	newFrames := DataFrames(d, obs.TraceRef{}, 2)

	rx := NewReceiver(src.Width())
	for _, f := range newFrames {
		if !rx.Offer(f) {
			t.Fatal("intact epoch-2 frame rejected")
		}
	}
	if rx.Copy().Len() != 8 || rx.Epoch() != 2 {
		t.Fatalf("epoch-2 sync: len %d epoch %d", rx.Copy().Len(), rx.Epoch())
	}
	for _, f := range oldFrames {
		if rx.Offer(f) {
			t.Fatal("dead-epoch straggler accepted")
		}
	}
	if rx.Resets() != 0 || rx.Copy().Len() != 8 || rx.Epoch() != 2 {
		t.Fatalf("straggler disturbed state: resets %d len %d epoch %d",
			rx.Resets(), rx.Copy().Len(), rx.Epoch())
	}
}

// TestAckEpochFiltering pins the sender side of the handshake: beacons
// stamped with another incarnation's epoch never advance this sender's
// window, and the exported codec round-trips the epoch.
func TestAckEpochFiltering(t *testing.T) {
	cum, epoch, ok := ParseAck(AckFrame(17, 4))
	if !ok || cum != 17 || epoch != 4 {
		t.Fatalf("ParseAck(AckFrame(17,4)) = %d,%d,%v", cum, epoch, ok)
	}
	cum, epoch, ok = ParseAck(AckFrame(9, 0)) // legacy extension-free beacon
	if !ok || cum != 9 || epoch != 0 {
		t.Fatalf("ParseAck legacy = %d,%d,%v", cum, epoch, ok)
	}
	if _, _, ok := ParseAck([]byte{1, 2, 3}); ok {
		t.Fatal("garbage parsed as ACK")
	}

	src := mkAware(34, 40)
	data := link.New(link.Params{Seed: 5}, 0)
	ack := link.New(link.Params{Seed: 5}, 1)
	s := NewSession(src, data, ack, SyncConfig{Epoch: 7})
	// A pre-restart beacon claiming the peer holds everything: must be
	// ignored, and the session must still deliver all 40 marks.
	if err := ack.Send(0, ackFrameBytes(40, 3)); err != nil {
		t.Fatal(err)
	}
	runSync(s, 1e9, 5000)
	assertBitExact(t, s.Copy(), src, src.Len())
}
