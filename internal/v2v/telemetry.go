package v2v

import "rups/internal/obs"

// syncTelemetry is the reliable sync protocol's metric roster (see
// docs/OBSERVABILITY.md): how hard the protocol had to work to keep peer
// copies contiguous, and how stale those copies ran. Paired with the
// rups_link_* counters these answer "what did the channel do, and what did
// it cost us" for any lossy run.
type syncTelemetry struct {
	chunksSent    *obs.Counter
	chunksResent  *obs.Counter
	chunksApplied *obs.Counter
	chunksHeld    *obs.Counter
	dupSuppressed *obs.Counter
	rejected      *obs.Counter
	acksSent      *obs.Counter
	timeouts      *obs.Counter
	epochResets   *obs.Counter
	ackRTT        *obs.Histogram
	copyAge       *obs.Histogram
}

var syncTel = obs.NewView(func(r *obs.Registry) *syncTelemetry {
	return &syncTelemetry{
		chunksSent: r.Counter("rups_v2v_chunks_sent_total",
			"trajectory chunks transmitted for the first time"),
		chunksResent: r.Counter("rups_v2v_chunks_retransmitted_total",
			"trajectory chunks retransmitted after a timeout"),
		chunksApplied: r.Counter("rups_v2v_chunks_applied_total",
			"chunks applied to a peer copy (contiguous delivery)"),
		chunksHeld: r.Counter("rups_v2v_chunks_held_total",
			"out-of-order chunks buffered until the gap before them filled"),
		dupSuppressed: r.Counter("rups_v2v_duplicates_suppressed_total",
			"duplicate frames and already-applied chunks discarded"),
		rejected: r.Counter("rups_v2v_frames_rejected_total",
			"frames discarded as malformed, CRC-corrupt, or over the reassembly cap"),
		acksSent: r.Counter("rups_v2v_acks_sent_total",
			"cumulative-ack beacons transmitted"),
		timeouts: r.Counter("rups_v2v_retransmit_timeouts_total",
			"retransmission timer expiries (each backs off the RTO)"),
		epochResets: r.Counter("rups_v2v_epoch_resets_total",
			"receiver resyncs triggered by a peer announcing a new session epoch"),
		// RTT spans one round (~4 ms) up to a fully backed-off timer (~4 s).
		ackRTT: r.Histogram("rups_v2v_ack_rtt_seconds",
			"round-trip from first transmission of a chunk to its cumulative ack", -10, 2),
		copyAge: r.Histogram("rups_v2v_copy_staleness_seconds",
			"age of a peer copy's freshest mark when observed", -4, 10),
	}
})
