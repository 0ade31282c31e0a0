package engine

import "rups/internal/core"

// TrackerIdleBatches exposes the idle-sweep horizon to the external tests.
const TrackerIdleBatches = trackerIdleBatches

// PairTracker returns the warm-start tracker the engine holds for id.
func (e *Engine) PairTracker(id PairID) (*core.Tracker, bool) {
	e.tmu.Lock()
	defer e.tmu.Unlock()
	st, ok := e.pairs[id]
	if !ok {
		return nil, false
	}
	return st.tk, true
}

// PairCount reports how many pairs hold engine state.
func (e *Engine) PairCount() int {
	e.tmu.Lock()
	defer e.tmu.Unlock()
	return len(e.pairs)
}

// SidesOut reports how many resolver sides the engine has built and not
// yet released.
func (e *Engine) SidesOut() int64 { return e.sidesOut.Load() }
