package engine

import "rups/internal/core"

// PairIdleBatches exposes the idle-sweep horizon to the external tests.
const PairIdleBatches = pairIdleBatches

// PairClass returns the staleness class the engine holds for id.
func (e *Engine) PairClass(id PairID) (core.Freshness, bool) {
	e.tmu.Lock()
	defer e.tmu.Unlock()
	st, ok := e.pairs[id]
	if !ok {
		return 0, false
	}
	return st.class, true
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
