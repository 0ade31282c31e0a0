package core

import "rups/internal/obs"

// searchTelemetry is the searcher's metric roster (see
// docs/OBSERVABILITY.md). Handles are fetched per Searcher through the
// obs.View, so a disabled registry costs one nil check per scan, and the
// scan loops themselves only bump plain ints that are flushed here in one
// atomic add per direction.
type searchTelemetry struct {
	searches  *obs.Counter
	segments  *obs.Counter
	windows   *obs.Counter
	pruned    *obs.Counter
	abandoned *obs.Counter
	accepted  *obs.Counter
	rejected  *obs.Counter
	margin    *obs.Histogram
}

var searchTel = obs.NewView(func(r *obs.Registry) *searchTelemetry {
	return &searchTelemetry{
		searches: r.Counter("rups_searcher_searches_total",
			"multi-SYN searches run (one per FindSYNs call)"),
		segments: r.Counter("rups_searcher_segments_total",
			"segment offsets planned for double-sliding checks"),
		windows: r.Counter("rups_searcher_windows_scanned_total",
			"window placements whose channel term was evaluated (abandoned ones included)"),
		pruned: r.Counter("rups_searcher_windows_pruned_total",
			"window placements skipped by the branch-and-bound column-term bound"),
		abandoned: r.Counter("rups_searcher_windows_abandoned_total",
			"scanned window placements abandoned part-way through the channel term by the early-abandon bound"),
		accepted: r.Counter("rups_searcher_syn_accepted_total",
			"segment checks whose best window passed the coherency threshold and heading gate"),
		rejected: r.Counter("rups_searcher_syn_rejected_total",
			"segment checks rejected (no candidate, below threshold, or heading gate)"),
		// Margins are score − threshold: fractions of the [-2, 2] coherency
		// scale, so 2^-8 ≈ 0.004 up to 2^2 = 4 covers them; sub-threshold
		// candidates land in the underflow bucket.
		margin: r.Histogram("rups_searcher_coherency_margin",
			"best-window score minus the segment's coherency threshold", -8, 2),
	}
})
