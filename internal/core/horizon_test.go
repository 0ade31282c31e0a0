package core

import (
	"reflect"
	"testing"

	"rups/internal/stats"
	"rups/internal/trajectory"
)

// holed returns a copy of tr with every channel missing over metres
// [lo, hi).
func holed(tr *trajectory.Aware, lo, hi int) *trajectory.Aware {
	c := tr.Clone()
	for ch := 0; ch < c.Width(); ch++ {
		for i := lo; i < hi; i++ {
			c.SetPower(ch, i, stats.Missing)
		}
	}
	return c
}

// newSearcher is NewSearcher with both indexes covering the last reach
// context columns (newResolverSide).
func newSearcher(a, b *trajectory.Aware, p Params, reach int) *Searcher {
	s := NewSearcherOn(newResolverSide(a, p, reach), b)
	s.own = true
	return s
}

// TestHorizonIndexMatchesFullIndex pins the scan-reach index to the
// whole-context one: a Searcher indexing only the last Params.scanReach
// metres of each clipped context must resolve reflect.DeepEqual to one
// indexing all of it, tick after tick.
// The 1100 m contexts are clipped to 1000 m, well past the reach, under
// default parameters, MaxRelDistM 40 (with the peer exactly 40 m ahead, so
// the deepest segment's match sits on the reach's first placement), NumSYN
// 1 and 8, the single-sided and no-column-term ablations, a peer or a
// resolver short enough to shrink the window, and contexts whose missing
// cells all lie before the reach — which must still score every placement
// through stats.Pearson, as the whole context is sparse.
func TestHorizonIndexMatchesFullIndex(t *testing.T) {
	const n = 1100
	p := DefaultParams()
	with := func(mod func(*Params)) Params {
		q := p
		mod(&q)
		return q
	}
	a, b := plantedPair(71, n, 25, 1.0)
	a40, b40 := plantedPair(72, n, 40, 1.0)
	road, roadB := pairOnRoad(t, 30, n)
	cases := []struct {
		name   string
		a, b   *trajectory.Aware
		p      Params
		sparse bool // the whole context is sparse, its reach dense
	}{
		{"default", a, b, p, false},
		{"road", road, roadB, p, false},
		{"maxrel-40", a40, b40, with(func(q *Params) { q.MaxRelDistM = 40 }), false},
		{"maxrel-40-single-sided", a40, b40, with(func(q *Params) { q.MaxRelDistM = 40; q.SingleSided = true }), false},
		{"numsyn-1", a, b, with(func(q *Params) { q.NumSYN = 1 }), false},
		{"numsyn-8", a, b, with(func(q *Params) { q.NumSYN = 8 }), false},
		{"single-sided", a, b, with(func(q *Params) { q.SingleSided = true }), false},
		// Without the column term a score tops out at 1: lower the bar.
		{"no-column-term", a, b, with(func(q *Params) { q.NoColumnTerm, q.Coherency, q.ShortCoherency = true, 0.9, 0.8 }), false},
		{"short-peer", a, b.Tail(110), p, false},
		{"short-resolver", a.Tail(100), b, p, false},
		{"missing-before-reach", holed(a, 300, 303), holed(b, 500, 502), p, true},
		{"peer-missing-before-reach", a, holed(b, 400, 401), p, true},
	}
	for _, c := range cases {
		full := c.p.MaxContextMeters
		probe := NewSearcher(c.a, c.b, c.p)
		if probe.idxA.base == 0 && probe.idxB.base == 0 {
			t.Fatalf("%s: neither index starts past the context's first mark", c.name)
		}
		if sparse := !probe.idxA.dense || !probe.idxB.dense; sparse != c.sparse {
			t.Fatalf("%s: sparse verdict %v, want %v", c.name, sparse, c.sparse)
		}
		if c.sparse && !(probe.idxA.segmentDense(0, probe.idxA.m) && probe.idxB.segmentDense(0, probe.idxB.m)) {
			t.Fatalf("%s: a missing cell inside the reach", c.name)
		}
		probe.Release()

		found, short := 0, false
		end := min(c.a.Geo.Marks[c.a.Len()-1].T, c.b.Geo.Marks[c.b.Len()-1].T)
		for tick := 4; tick >= 0; tick-- {
			at := end - 3*float64(tick)
			ta, tb := c.a.PrefixUntil(at), c.b.PrefixUntil(at)
			resolve := func(reach int) (Estimate, bool) {
				s := newSearcher(ta, tb, c.p, reach)
				defer s.Release()
				return s.Resolve(Sequential)
			}
			got, gotOK := resolve(c.p.scanReach())
			want, wantOK := resolve(full)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s tick %d: reach index (%+v, %v), full index (%+v, %v)", c.name, tick, got, gotOK, want, wantOK)
			}
			if gotOK {
				found++
			}
			for _, syn := range got.SYNs {
				short = short || syn.WindowLen < c.p.WindowMeters
			}
		}
		if found == 0 {
			t.Fatalf("%s: no tick resolved", c.name)
		}
		if wantShort := c.a.Len() < 200 || c.b.Len() < 200; short != wantShort {
			t.Fatalf("%s: shrunken window %v, want %v", c.name, short, wantShort)
		}
	}
}
