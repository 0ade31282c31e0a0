package engine

import "rups/internal/obs"

// engineTelemetry is the pool's metric roster (see docs/OBSERVABILITY.md).
// Handles are re-fetched per run/batch through the obs.View, so a disabled
// registry costs one atomic load per call and no task-level work at all.
type engineTelemetry struct {
	tasks        *obs.Counter
	inline       *obs.Counter
	batches      *obs.Counter
	depth        *obs.Gauge
	peak         *obs.Gauge
	taskSec      *obs.Histogram
	batchSec     *obs.Histogram
	pairSec      *obs.Histogram
	pairsStale   *obs.Counter
	pairsExpired *obs.Counter
	pairsShed    *obs.Counter
	sides        *obs.Counter
}

var engineTel = obs.NewView(func(r *obs.Registry) *engineTelemetry {
	return &engineTelemetry{
		tasks: r.Counter("rups_engine_tasks_total",
			"tasks scheduled through the engine pool (pooled or inline)"),
		inline: r.Counter("rups_engine_tasks_inline_total",
			"tasks run inline on the caller because no worker was idle (help-first fallback)"),
		batches: r.Counter("rups_engine_batches_total",
			"pair batches resolved (one per Batch.Resolve call)"),
		depth: r.Gauge("rups_engine_queue_depth",
			"tasks currently handed to pool workers and not yet finished"),
		peak: r.Gauge("rups_engine_queue_depth_peak",
			"high-water mark of rups_engine_queue_depth since the registry was installed"),
		// 2^-20 s ≈ 1 µs up to 2^4 = 16 s covers direction scans through
		// whole-pair resolutions.
		taskSec: r.Histogram("rups_engine_task_seconds",
			"wall time of one pooled or inline task", -20, 4),
		// Batches span many pairs: 2^-10 s ≈ 1 ms up to 2^6 = 64 s.
		batchSec: r.Histogram("rups_engine_batch_seconds",
			"wall time of one Batch.Resolve call", -10, 6),
		// Per-pair resolve latency feeds the resolve-latency SLO; same
		// span as taskSec (1 µs – 16 s).
		pairSec: r.Histogram("rups_engine_pair_seconds",
			"wall time of one pair resolution (searcher build through aggregation; the pair that builds its slot's resolver side, or waits for it, includes that time)", -20, 4),
		pairsStale: r.Counter("rups_engine_pairs_stale_total",
			"pairs resolved from degraded (aged) context and flagged stale"),
		pairsExpired: r.Counter("rups_engine_pairs_expired_total",
			"pairs refused because a context aged past the expiry horizon"),
		pairsShed: r.Counter("rups_engine_pairs_shed_total",
			"pairs shed because their deadline expired before resolution started"),
		sides: r.Counter("rups_engine_resolver_sides_total",
			"resolver sides built (at most one per admitted slot per batch, shared by the slot's queries)"),
	}
})
