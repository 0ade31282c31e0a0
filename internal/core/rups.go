package core

import (
	"fmt"
	"math"
	"sync"

	"rups/internal/geo"
	"rups/internal/obs"
	"rups/internal/stats"
	"rups/internal/trajectory"
)

// audibleFloorDBm is the minimum mean RSSI for a channel to join the
// checking window; minWindowChannels is the floor on window width.
const (
	audibleFloorDBm   = -107.0
	minWindowChannels = 8
)

// Estimate is a resolved relative distance between two vehicles.
type Estimate struct {
	// Distance is the aggregated front-rear distance in metres; positive
	// means the peer (trajectory B) is ahead.
	Distance float64
	// SYNs are the SYN points that contributed.
	SYNs []SYNPoint
	// Score is the best trajectory correlation among the SYN points.
	Score float64
}

// Parallel runs a set of independent tasks to completion. The argument
// tasks never depend on each other, so any execution order — or genuine
// concurrency — is valid. Sequential is the in-order default used by the
// plain FindSYN/Resolve entry points; the batch-resolution engine
// substitutes its bounded worker pool. Every task is internally
// deterministic and writes only its own result slot, so results are
// bit-identical under any Parallel implementation.
type Parallel func(tasks ...func())

// Sequential runs the tasks one after another on the calling goroutine.
var Sequential Parallel = func(tasks ...func()) {
	for _, t := range tasks {
		t()
	}
}

// clip returns the trajectory limited to the most recent MaxContextMeters,
// plus the index offset mapping local indices back to the original.
func clip(a *trajectory.Aware, p Params) (*trajectory.Aware, int) {
	if a.Len() > p.MaxContextMeters {
		return a.Tail(p.MaxContextMeters), a.Len() - p.MaxContextMeters
	}
	return a, 0
}

// ResolverSide is the half of a Searcher that depends on the resolver's
// snapshot alone: the context clipped to MaxContextMeters and its offset,
// the checking window's channels (the resolver's strongest over the
// clipped context, paper §IV-D), and the resolver's matrixIndex over them
// and over the scan's reach. Same bytes in, same tables out, so one side
// serves every peer the resolver is paired with — the engine builds one
// per admitted resolver slot and batch and shares it among that slot's
// queries (NewSearcherOn).
//
// A built side is read-only, so any number of Searchers may read it
// concurrently. The one lazy part is the dBm rows a sparse segment reads
// (matrixIndex.materialize): a sparse context materializes at build time,
// a dense one on first use by a pair whose peer is sparse, at most once.
type ResolverSide struct {
	// a is the resolver's snapshot, unclipped (Resolve measures distances
	// from its last mark).
	a        *trajectory.Aware
	ctx      *trajectory.Aware
	off      int
	p        Params
	channels []int
	// reach is how many trailing context columns both sides' indexes
	// cover (Params.scanReach).
	reach int
	idx   *matrixIndex
	mat   sync.Once
	// ar backs the index; Release returns it to the pool.
	ar *arena
}

// NewResolverSide prepares the resolver half of every search from a
// under p.
func NewResolverSide(a *trajectory.Aware, p Params) *ResolverSide {
	return newResolverSide(a, p, p.scanReach())
}

// newResolverSide is NewResolverSide with the indexes covering the last
// reach context columns; tests pass a longer reach to index whole
// contexts.
func newResolverSide(a *trajectory.Aware, p Params, reach int) *ResolverSide {
	p.validate()
	sd := &ResolverSide{a: a, p: p, reach: reach, ar: arenaPool.Get().(*arena)}
	sd.ctx, sd.off = clip(a, p)
	// Checking-window width: the strongest channels, but never channels
	// idling at the noise floor — sparse suburbs may not have
	// WindowChannels audible carriers, and constant rows only dilute the
	// correlation.
	sd.channels = sd.ctx.TopAudibleChannels(p.WindowChannels, audibleFloorDBm, minWindowChannels)
	sd.idx = newTrajectoryIndex(sd.ctx, sd.channels, reach, sd.ar)
	if !sd.idx.dense {
		sd.materialize()
	}
	return sd
}

// materialize readies the side's dBm rows, once.
func (sd *ResolverSide) materialize() { sd.mat.Do(sd.idx.materialize) }

// Release returns the side's arena to the pool. No Searcher built on the
// side may be used afterwards. Releasing is optional, and idempotent.
func (sd *ResolverSide) Release() {
	if sd.ar != nil {
		sd.ar.reset()
		arenaPool.Put(sd.ar)
		sd.ar = nil
		sd.idx = nil
	}
}

// Searcher owns the shared precomputation for SYN searches between one
// pair of trajectories: the resolver side (ResolverSide) and the peer's
// clipped context and matrixIndex over the resolver's channels. Building
// it costs the O(k·m) preprocessing once; every segment offset and both
// sliding directions of every subsequent search reuse it, instead of
// rebuilding it 2·NumSYN times per query as the layered
// FindSYN→findSYNWindow path used to.
//
// A Searcher reads the trajectories it was built on but never writes them.
// It must not be shared across goroutines while trajectory appends are in
// flight — resolve on snapshots (trajectory.Aware.Snapshot); the engine
// does this at query admission.
type Searcher struct {
	// side is the resolver half; a, aCtx, offA and idxA are its fields,
	// read from it at construction so both halves read alike. own marks a
	// private side (NewSearcher), which Release releases too.
	side       *ResolverSide
	own        bool
	a, b       *trajectory.Aware
	aCtx, bCtx *trajectory.Aware
	offA, offB int
	p          Params
	idxA, idxB *matrixIndex

	// ar backs the peer's selected cells and index tables; Release returns
	// it to the pool, after which the Searcher must not be used.
	ar *arena

	// Telemetry, resolved once per searcher: tel is nil while the metrics
	// registry is disabled, rec is nil while span tracing is disabled, and
	// every instrument site guards on that nil — the whole disabled-path
	// cost (proven alloc-free by TestSearcherTelemetryDisabledCostsNothing).
	tel   *searchTelemetry
	rec   *obs.Recorder
	trace obs.TraceID
	// parent/scanParent stitch this search into a caller-supplied causal
	// trace (SetTrace): parent hangs the resolve span under the admitting
	// context's span, scanParent hangs direction scans under the resolve
	// span. Both 0 by default — spans then root their own trace as before.
	parent     obs.SpanID
	scanParent obs.SpanID
}

// NewSearcher prepares the shared per-pair state for resolving relative
// distances between a and b under p, on a private resolver side.
func NewSearcher(a, b *trajectory.Aware, p Params) *Searcher {
	s := NewSearcherOn(NewResolverSide(a, p), b)
	s.own = true
	return s
}

// NewSearcherOn prepares the per-pair state for resolving the side's
// resolver against b, under the side's Params. The side stays the
// caller's: Release leaves it alone.
func NewSearcherOn(side *ResolverSide, b *trajectory.Aware) *Searcher {
	s := &Searcher{side: side, a: side.a, aCtx: side.ctx, offA: side.off, idxA: side.idx, b: b, p: side.p}
	s.tel = searchTel.Get()
	s.rec = obs.ActiveRecorder()
	s.trace = s.rec.NewTrace()
	s.ar = arenaPool.Get().(*arena)
	s.bCtx, s.offB = clip(b, s.p)
	s.idxB = newTrajectoryIndex(s.bCtx, side.channels, side.reach, s.ar)
	if !s.idxA.dense || !s.idxB.dense {
		// A segment scores through stats.Pearson when either side holds a
		// missing cell, reading both sides' dBm rows.
		side.materialize()
		s.idxB.materialize()
	}
	return s
}

// SetTrace stitches this search into an existing causal trace — in the
// convoy pipeline, the cross-vehicle trace begun by the peer's v2v sync
// session (see obs.TraceRef). The zero ref is ignored: the searcher then
// keeps its own root trace, exactly the pre-stitching behavior.
func (s *Searcher) SetTrace(ref obs.TraceRef) {
	if ref.Trace != 0 {
		s.trace = ref.Trace
		s.parent = ref.Parent
	}
}

// Release returns the searcher's arena to the pool, and its resolver
// side's when the side is private (NewSearcher). The Searcher (and any row
// data reached through it) must not be used afterwards. Releasing is
// optional — an un-Released arena is simply garbage collected — but the
// engine and the package-level entry points always release, which is what
// keeps steady-state resolves allocation-flat.
func (s *Searcher) Release() {
	if s.ar != nil {
		s.ar.reset()
		arenaPool.Put(s.ar)
		s.ar = nil
		s.idxA, s.idxB = nil, nil
		if s.own {
			s.side.Release()
		}
		s.side = nil
	}
}

// segmentPlan is one planned double-sliding check: the window length and
// threshold planSegment derived from the available context at one segment
// offset.
type segmentPlan struct {
	endOff    int
	w         int
	threshold float64
	// Direction results: A's segment over B, and B's segment over A.
	posB, posA       int
	scoreAB, scoreBA float64
}

// planSegment derives the window length for the segment ending endOff
// metres before the most recent mark. ok is false when the remaining
// context cannot support even the §V-C minimum window. The §V-C flexible
// window applies when the available context is shorter than the configured
// window: the window shrinks (down to the floor) and the relaxed threshold
// applies. Retrying smaller windows on failure was evaluated and rejected:
// at the relaxed threshold, short windows admit wrong matches (see the
// ablations experiment's history).
func (s *Searcher) planSegment(endOff int) (segmentPlan, bool) {
	avail := s.aCtx.Len() - endOff
	if m := s.bCtx.Len() - endOff; m < avail {
		avail = m
	}
	w := s.p.WindowMeters
	if avail <= w {
		// A window as long as the whole context leaves no room to slide;
		// take two thirds — the remaining third is the largest detectable
		// misalignment.
		w = avail * 2 / 3
	}
	if w < s.p.MinWindowMeters {
		return segmentPlan{}, false
	}
	pl := segmentPlan{endOff: endOff, w: w, threshold: s.p.Coherency}
	if w < s.p.WindowMeters {
		pl.threshold = s.p.ShortCoherency
	}
	return pl, true
}

// bounds returns the admissible window placements on a target of the given
// length (§IV-A locality): a placement j implies a relative distance of
// (targetLen − w − j) − endOff metres, so plausible placements form an
// interval around the aligned position.
func (s *Searcher) bounds(targetLen, w, endOff int) (lo, hi int) {
	centre := targetLen - w - endOff
	return centre - s.p.MaxRelDistM, centre + s.p.MaxRelDistM
}

// scanSegment runs one segment's double-sliding check (paper §IV-D) as one
// task: two direction scans in dependency order, each one call of the
// exact branch-and-bound scan (segScorer.scan) pivoted on its range
// midpoint, the aligned position. AB scans first. BA cannot be skipped (its
// real score can win combine), but it is scanned seeded with AB's score
// under combine's tie rule: placements that provably cannot win combine are
// pruned on their column term, so a direction holding no real alignment
// costs one column sweep. Combine — and the resolved estimate — equals that
// of two unpruned full scans.
func (s *Searcher) scanSegment(pl *segmentPlan) {
	ab := s.segScorer(s.idxA, s.idxB, s.aCtx.Len()-pl.endOff-pl.w, pl)
	defer s.finishScan(ab)
	loB, hiB := s.bounds(s.bCtx.Len(), pl.w, pl.endOff)
	sp := s.scanSpan("scan_ab", pl)
	pl.posB, pl.scoreAB = ab.scan(loB, hiB, math.Inf(-1), true)
	sp.End()
	if s.p.SingleSided {
		pl.posA, pl.scoreBA = -1, math.Inf(-1)
		return
	}
	ba := s.segScorer(s.idxB, s.idxA, s.bCtx.Len()-pl.endOff-pl.w, pl)
	defer s.finishScan(ba)
	loA, hiA := s.bounds(s.aCtx.Len(), pl.w, pl.endOff)
	// BA loses combine ties: placements that can at best tie AB's score are
	// pruned too.
	sp = s.scanSpan("scan_ba", pl)
	pl.posA, pl.scoreBA = ba.scan(loA, hiA, pl.scoreAB, false)
	sp.End()
}

// scanSpan opens one direction scan's span under the resolve span, tagged
// with the segment offset.
func (s *Searcher) scanSpan(name string, pl *segmentPlan) obs.Span {
	sp := s.rec.StartChild(s.trace, s.scanParent, name)
	sp.Arg = int64(pl.endOff)
	return sp
}

// segScorer builds one direction scan's scorer for the reference segment
// of src starting at lo, carrying the segment's coherency threshold as the
// bounded scan's floor: placements that cannot reach it are never scored
// to completion, and combine rejects the segment exactly as it would on
// the full maximum.
func (s *Searcher) segScorer(src, tgt *matrixIndex, lo int, pl *segmentPlan) *segScorer {
	sc := newSegScorer(src, tgt, lo, pl.w, s.p.NoColumnTerm)
	sc.floor = pl.threshold
	return sc
}

// clampRange intersects [lo, hi] with the valid placements [0, n-1].
func clampRange(lo, hi, n int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	return lo, hi
}

// finishScan folds one direction scan's placement counts into the metrics
// registry (three atomic adds; skipped entirely while telemetry is off) and
// releases its scorer.
func (s *Searcher) finishScan(sc *segScorer) {
	if t := s.tel; t != nil {
		t.windows.Add(uint64(sc.visited))
		t.pruned.Add(uint64(sc.pruned))
		t.abandoned.Add(uint64(sc.abandoned))
	}
	sc.release()
}

// combine folds the two direction results into the segment's SYN point
// (paper §IV-D: the better-scoring direction wins), applying the coherency
// threshold and the heading gate. Each direction's score is exact when it
// reaches the threshold and some lower score (or -Inf, position -1) when
// the bounded scan proved it cannot, so the winner and the verdict equal
// those of two full scans.
func (s *Searcher) combine(pl *segmentPlan) (SYNPoint, bool) {
	t := s.tel
	best := SYNPoint{WindowLen: pl.w}
	endA := s.aCtx.Len() - 1 - pl.endOff
	endB := s.bCtx.Len() - 1 - pl.endOff
	if pl.scoreAB >= pl.scoreBA {
		best.Score = pl.scoreAB
		best.IdxA = s.offA + endA
		best.IdxB = s.offB + pl.posB + pl.w - 1
	} else {
		best.Score = pl.scoreBA
		best.IdxA = s.offA + pl.posA + pl.w - 1
		best.IdxB = s.offB + endB
	}
	if t != nil {
		// One observation per combined segment. A segment with no scored
		// placement (-Inf) counts at the coefficient's floor of −2, which
		// keeps it in the underflow bucket and the sum finite.
		t.margin.Observe(math.Max(best.Score, -2) - pl.threshold)
	}
	if best.Score < pl.threshold {
		if t != nil {
			t.rejected.Inc()
		}
		return SYNPoint{}, false
	}
	if s.p.HeadingGateRad > 0 {
		ha := s.aCtx.Geo.Marks[best.IdxA-s.offA].Theta
		hb := s.bCtx.Geo.Marks[best.IdxB-s.offB].Theta
		if d := geo.HeadingDiff(ha, hb); math.Abs(d) > s.p.HeadingGateRad {
			if t != nil {
				t.rejected.Inc()
			}
			return SYNPoint{}, false
		}
	}
	if t != nil {
		t.accepted.Inc()
	}
	return best, true
}

// FindSYNs locates up to n SYN points from segments ending at successive
// strides back from the most recent mark (§VI-C), running one scanSegment
// task per planned segment through par. Results are combined in segment
// order, so the output is bit-identical for any Parallel implementation.
// n may not exceed Params.NumSYN: deeper segments lie beyond the indexes'
// reach.
func (s *Searcher) FindSYNs(n int, par Parallel) []SYNPoint {
	if n > s.p.NumSYN {
		panic(fmt.Sprintf("core: FindSYNs(%d) past Params.NumSYN %d", n, s.p.NumSYN))
	}
	if t := s.tel; t != nil {
		t.searches.Inc()
	}
	plans := make([]*segmentPlan, 0, n)
	tasks := make([]func(), 0, n)
	for i := 0; i < n; i++ {
		pl, ok := s.planSegment(i * s.p.SegmentStrideMeters)
		if !ok {
			continue
		}
		if t := s.tel; t != nil {
			t.segments.Inc()
		}
		plans = append(plans, &pl)
		tasks = append(tasks, func() { s.scanSegment(&pl) })
	}
	par(tasks...)
	var out []SYNPoint
	for _, pl := range plans {
		syn, ok := s.combine(pl)
		if ok {
			out = append(out, syn)
		}
	}
	return out
}

// Resolve is the full RUPS pipeline for this pair: find up to NumSYN SYN
// points (one segment task each, fanned out through par), turn each into a
// distance estimate, and aggregate them according to p.Aggregation. ok is
// false when no SYN point was found.
func (s *Searcher) Resolve(par Parallel) (Estimate, bool) {
	rsp := s.rec.StartChild(s.trace, s.parent, "resolve")
	defer rsp.End()
	// Segment tasks fan out under the resolve span, which itself hangs
	// under any stitched-in cross-vehicle parent (SetTrace).
	s.scanParent = rsp.ID()
	syns := s.FindSYNs(s.p.NumSYN, par)
	if len(syns) == 0 {
		return Estimate{}, false
	}
	asp := s.rec.StartChild(s.trace, rsp.ID(), "aggregate")
	asp.Arg = int64(len(syns))
	defer asp.End()
	est := Estimate{SYNs: syns}
	dists := make([]float64, len(syns))
	bestI := 0
	for i, syn := range syns {
		dists[i] = syn.RelativeDistance(s.a, s.b)
		if syn.Score > syns[bestI].Score {
			bestI = i
		}
	}
	est.Score = syns[bestI].Score
	switch s.p.Aggregation {
	case SingleSYN:
		est.Distance = dists[bestI]
	case MeanAgg:
		est.Distance = stats.Mean(dists)
	case SelectiveAgg:
		est.Distance = stats.SelectiveMean(dists)
	default:
		panic("core: unknown aggregation mode")
	}
	return est, true
}

// FindSYN runs the double-sliding check (paper §IV-D) between the most
// recent segments of a and b and returns the best SYN point. ok is false
// when no window position reaches the coherency threshold — the
// trajectories are considered unrelated.
func FindSYN(a, b *trajectory.Aware, p Params) (SYNPoint, bool) {
	s := NewSearcher(a, b, p)
	defer s.Release()
	syns := s.FindSYNs(1, Sequential)
	if len(syns) == 0 {
		return SYNPoint{}, false
	}
	return syns[0], true
}

// Resolve is the full RUPS pipeline for one query: find up to NumSYN SYN
// points, turn each into a distance estimate, and aggregate them according
// to p.Aggregation. ok is false when no SYN point was found. This is the
// sequential oracle path; the batch-resolution engine produces
// bit-identical estimates by running the same Searcher over its pool.
func Resolve(a, b *trajectory.Aware, p Params) (Estimate, bool) {
	s := NewSearcher(a, b, p)
	defer s.Release()
	return s.Resolve(Sequential)
}
