package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"rups/internal/obs"
)

// TestSearcherTelemetryDisabledCostsNothing: with the registry disabled, a
// full search allocates exactly what the uninstrumented searcher did — an
// enable/disable cycle in between must not leave any residue (cached
// handles are keyed on the registry pointer and go nil again). The timing
// side of the ≤2% budget is BenchmarkSearcherInstrumented against
// BenchmarkFindSYNs (go test -bench, repo root); end to end, perfbench's
// obs.trace_overhead_frac metrics price the enabled path.
func TestSearcherTelemetryDisabledCostsNothing(t *testing.T) {
	obs.Disable()
	obs.SetRecorder(nil)
	a, b := plantedPair(11, 400, 30, 1.0)
	p := DefaultParams()
	search := func() {
		if syns := NewSearcher(a, b, p).FindSYNs(p.NumSYN, Sequential); len(syns) == 0 {
			t.Fatal("no SYNs on overlapping synthetic pair")
		}
	}

	// Warm the path first: under the race detector the very first searches
	// pay one-time lazy instrumentation allocations that would otherwise
	// inflate the "before" measurement only. The 30-run average then
	// dilutes whatever one-time costs remain.
	testing.AllocsPerRun(10, search)

	before := testing.AllocsPerRun(30, search)

	// Exercise the enabled path, then disable again.
	obs.Enable(obs.NewRegistry())
	obs.SetRecorder(obs.NewRecorder(64))
	search()
	obs.Disable()
	obs.SetRecorder(nil)

	after := testing.AllocsPerRun(30, search)
	// The race detector's bookkeeping makes AllocsPerRun jitter by a few
	// counts in either direction — an absolute amount, independent of how
	// much the search itself allocates, so the pad must be absolute too
	// (a 2% relative pad stopped covering it once the scratch-array
	// flattening cut a search to under 100 allocs). A genuine handle leak
	// would show up as hundreds of extra allocs, not single digits.
	tol := 2.0
	if raceEnabled {
		tol = 8
	}
	if diff := after - before; diff > tol || diff < -tol {
		t.Errorf("disabled-telemetry search allocs drifted: %v before, %v after enable/disable cycle",
			before, after)
	}

	// And the counters really were fed while enabled.
	reg := obs.NewRegistry()
	obs.Enable(reg)
	defer func() {
		obs.Disable()
		obs.SetRecorder(nil)
	}()
	search()
	tel := searchTel.Get()
	if tel == nil {
		t.Fatal("view nil while enabled")
	}
	if tel.searches.Value() == 0 || tel.windows.Value() == 0 || tel.margin.Count() == 0 {
		t.Errorf("enabled search left counters empty: searches=%d windows=%d margins=%d",
			tel.searches.Value(), tel.windows.Value(), tel.margin.Count())
	}
}

// TestSearcherMarginOnePerSegment: the coherency-margin histogram takes
// exactly one observation per combined segment, and a segment the bounded
// scan proved below its threshold still lands in the underflow bucket with
// a finite value. Abandoned placements are a subset of scanned ones.
func TestSearcherMarginOnePerSegment(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Enable(reg)
	defer obs.Disable()
	p := DefaultParams()
	p.WindowChannels = 40

	a, _ := plantedPair(31, 300, 20, 1.0)
	_, b := plantedPair(32, 300, 20, 1.0) // another world: unrelated to a
	if syns := findSYNs(a, b, p); len(syns) != 0 {
		t.Fatalf("unrelated pair produced %d SYNs", len(syns))
	}
	tel := searchTel.Get()
	segs := tel.segments.Value()
	if segs == 0 || tel.margin.Count() != segs || tel.rejected.Value() != segs {
		t.Fatalf("unrelated pair: %d segments, %d margin observations, %d rejections",
			segs, tel.margin.Count(), tel.rejected.Value())
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	underflow := fmt.Sprintf("rups_searcher_coherency_margin_bucket{le=\"0.00390625\"} %d\n", segs)
	if !strings.Contains(buf.String(), underflow) {
		t.Errorf("rejected segments missing from the underflow bucket; want line %q in\n%s", underflow, buf.String())
	}
	if sum := tel.margin.Sum(); math.IsInf(sum, 0) || math.IsNaN(sum) || sum >= 0 {
		t.Errorf("margin sum over rejected segments = %v, want finite and negative", sum)
	}

	a, b = plantedPair(33, 300, 20, 1.0)
	if syns := findSYNs(a, b, p); len(syns) == 0 {
		t.Fatal("planted pair produced no SYNs")
	}
	if segs := tel.segments.Value(); tel.margin.Count() != segs || tel.accepted.Value()+tel.rejected.Value() != segs {
		t.Errorf("after planted pair: %d segments, %d margin observations, %d accepted + %d rejected",
			segs, tel.margin.Count(), tel.accepted.Value(), tel.rejected.Value())
	}
	if ab, sc := tel.abandoned.Value(), tel.windows.Value(); ab == 0 || ab > sc {
		t.Errorf("abandoned %d of %d scanned placements; want 0 < abandoned ≤ scanned", ab, sc)
	}
}
