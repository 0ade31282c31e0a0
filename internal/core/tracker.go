package core

// warmRadiusM is the drift tolerance for classifying a warm-started
// segment as a hit: how far (in metres) a pair's SYN offset may move
// between consecutive ticks and still count as tracked. At urban speeds
// and second-scale resolve intervals the relative offset moves a few
// metres per tick, so 25 m is generous without masking a lost lock.
const warmRadiusM = 25

// Tracker carries one pair's warm-start state across resolves, keyed by
// segment ordinal (the i-th NumSYN segment). Each hint is the previous
// tick's SYN index delta IdxB − IdxA — a quantity stable under appends,
// since both indexes are global marks counted from each trajectory's
// start. The searcher turns a hint into a predicted window placement and
// pivots that direction's exact branch-and-bound scan on it: the scan still
// covers the whole locality range, but on a live lock its first visit is the
// true match and the bound cuts nearly every other placement. The other
// direction scans seeded with the first one's score (Searcher.scanSegment).
// A wrong hint only reorders the scan and costs more channel terms, never
// correctness: the result is always identical to the cold oracle's.
//
// State machine per segment:
//
//	no hint ──(SYN accepted)──▶ tracked ──(SYN accepted)──▶ tracked
//	tracked ──(segment rejected: coherency loss, heading gate)──▶ no hint
//	any ──(Tracker.Reset: staleness expiry)──▶ no hint
//
// A Tracker is owned by one engine pair (engine.PairID) and must not be
// shared across goroutines within a batch; the engine hands it only to the
// first query naming the pair.
type Tracker struct {
	hints map[int]int
}

// NewTracker builds a tracker with no hints: its first resolve scans cold.
func NewTracker() *Tracker {
	return &Tracker{hints: make(map[int]int)}
}

// Reset drops every hint: the next resolve cold-scans all segments. The
// engine calls this when core.Staleness expires the pair — contexts old
// enough to be discarded cannot vouch for a warm window either.
func (t *Tracker) Reset() {
	clear(t.hints)
}

// hint returns the previous tick's SYN delta for a segment ordinal.
func (t *Tracker) hint(seg int) (delta int, ok bool) {
	delta, ok = t.hints[seg]
	return delta, ok
}

// forget drops one segment ordinal's hint. The searcher calls it for
// ordinals the current tick could not even plan (context too short): an
// unplanned segment is never scanned or re-observed, so its hint would
// otherwise survive arbitrarily many ticks without refresh.
func (t *Tracker) forget(seg int) {
	delete(t.hints, seg)
}

// observe records a segment's outcome: an accepted SYN refreshes the hint,
// a rejection demotes the segment to cold scanning (coherency loss must
// not keep steering future scans toward a stale lock).
func (t *Tracker) observe(seg int, syn SYNPoint, ok bool) {
	if !ok {
		delete(t.hints, seg)
		return
	}
	t.hints[seg] = syn.IdxB - syn.IdxA
}
