package core

import "sync"

// arena is a bump allocator for the backing arrays of one matrixIndex —
// a ResolverSide's, or a Searcher's peer index: the selected channel
// cells, the prefix tables and column sums, and (for contexts with missing
// cells) the dBm rows the slow path scores. One index grabs a few hundred
// kilobytes in a handful of slices, uses them for exactly its owner's
// lifetime, and frees them all at once — the textbook arena shape.
// Pooling the arena turns the per-resolve allocation firehose into a
// steady-state zero.
//
// Arena memory is NOT zeroed between cycles. Every consumer must write all
// cells it will read (the index builders do — the only zero-init they rely
// on, the prefix-table sentinels and the row pads, is written explicitly).
type arena struct {
	f  []float64
	p  []rowPre
	b  []uint8
	fb bump
	pb bump
	bb bump
}

// bump is one buffer's bookkeeping for the current cycle: the cells handed
// out, and the cells requested beyond the buffer, so the next cycle can
// start with a buffer grown to the observed peak and stay allocation-free.
type bump struct{ used, extra int }

// take reserves n cells of a buffer of the given size and returns the
// first one, or ok false when the buffer has no room left.
func (b *bump) take(n, size int) (lo int, ok bool) {
	if b.used+n > size {
		b.extra += n
		return 0, false
	}
	b.used += n
	return b.used - n, true
}

// cycle starts the next cycle and returns the size the buffer must grow
// to, or 0 when this cycle's peak fit.
func (b *bump) cycle(size int) int {
	need := b.used + b.extra
	b.used, b.extra = 0, 0
	if need > size {
		return need
	}
	return 0
}

// floats, pres and bytes return n uninitialized cells of their type. A nil
// arena degrades to plain allocation, so index builders work without a
// searcher (tests construct them directly).
func (ar *arena) floats(n int) []float64 {
	if ar != nil {
		if lo, ok := ar.fb.take(n, len(ar.f)); ok {
			return ar.f[lo : lo+n : lo+n]
		}
	}
	return make([]float64, n)
}

func (ar *arena) pres(n int) []rowPre {
	if ar != nil {
		if lo, ok := ar.pb.take(n, len(ar.p)); ok {
			return ar.p[lo : lo+n : lo+n]
		}
	}
	return make([]rowPre, n)
}

func (ar *arena) bytes(n int) []uint8 {
	if ar != nil {
		if lo, ok := ar.bb.take(n, len(ar.b)); ok {
			return ar.b[lo : lo+n : lo+n]
		}
	}
	return make([]uint8, n)
}

// reset recycles the arena for the next cycle, growing each buffer to this
// cycle's peak demand.
func (ar *arena) reset() {
	if n := ar.fb.cycle(len(ar.f)); n > 0 {
		ar.f = make([]float64, n)
	}
	if n := ar.pb.cycle(len(ar.p)); n > 0 {
		ar.p = make([]rowPre, n)
	}
	if n := ar.bb.cycle(len(ar.b)); n > 0 {
		ar.b = make([]uint8, n)
	}
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}
