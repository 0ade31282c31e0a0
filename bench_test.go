// Benchmarks: one per paper table/figure (the workload that regenerates
// it), plus the §V cost-model benches and ablation benches for the design
// choices DESIGN.md §5 calls out. They are per-layer probes; end-to-end
// performance is measured by perfbench/ (see BENCHMARK.json). Run with:
//
//	go test -bench=. -benchmem
package rups_test

import (
	"math"
	"sync"
	"testing"

	"rups/internal/city"
	"rups/internal/core"
	"rups/internal/engine"
	"rups/internal/eval"
	"rups/internal/geo"
	"rups/internal/gsm"
	"rups/internal/link"
	"rups/internal/obs"
	"rups/internal/sim"
	"rups/internal/stats"
	"rups/internal/trajectory"
	"rups/internal/v2v"
)

// benchOpts keeps the per-iteration work bounded; the full experiment runs
// live in cmd/rups-eval.
var benchOpts = eval.Options{Seed: 42, Quick: true}

// --- §III micro experiments -------------------------------------------------

// BenchmarkFig1Spectrogram regenerates the two-road spectrogram comparison.
func BenchmarkFig1Spectrogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := eval.Fig1(benchOpts); len(tb.Rows) != 3 {
			b.Fatal("fig1 produced wrong shape")
		}
	}
}

// BenchmarkFig2Stability regenerates the temporal-stability curves.
func BenchmarkFig2Stability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := eval.Fig2(benchOpts); len(tb.Rows) == 0 {
			b.Fatal("fig2 empty")
		}
	}
}

// BenchmarkFig3Uniqueness regenerates the uniqueness CDFs.
func BenchmarkFig3Uniqueness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := eval.Fig3(benchOpts); len(tb.Rows) == 0 {
			b.Fatal("fig3 empty")
		}
	}
}

// BenchmarkFig4Resolution regenerates the relative-change-vs-distance series.
func BenchmarkFig4Resolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := eval.Fig4(benchOpts); len(tb.Rows) == 0 {
			b.Fatal("fig4 empty")
		}
	}
}

// --- §VI system experiments --------------------------------------------------

// sharedRun caches one executed scenario; the per-figure benches measure
// query answering, which is the per-operation cost a deployment cares
// about (the drive itself happens once).
var (
	runOnce   sync.Once
	benchRun  *sim.Run
	benchTime []float64
)

func getBenchRun(b *testing.B) (*sim.Run, []float64) {
	b.Helper()
	runOnce.Do(func() {
		sc := sim.DefaultScenario(4242, city.EightLaneUrban)
		sc.Trucks = 2
		benchRun = sim.Execute(sc)
		benchTime = benchRun.QueryTimes(64, 1)
	})
	return benchRun, benchTime
}

// BenchmarkFig9SynRadios measures one SYN-error query on the Fig 9
// scenario (8-lane urban, 4 front radios).
func BenchmarkFig9SynRadios(b *testing.B) {
	r, times := getBenchRun(b)
	p := core.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := r.Query(times[i%len(times)], p)
		if q.OK && math.IsInf(q.SYNErrM, 0) {
			b.Fatal("bad SYN error")
		}
	}
}

// BenchmarkFig10Aggregation measures a full multi-SYN selective-average
// resolution under perturbation.
func BenchmarkFig10Aggregation(b *testing.B) {
	r, times := getBenchRun(b)
	p := core.DefaultParams()
	p.Aggregation = core.SelectiveAgg
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Query(times[i%len(times)], p)
	}
}

// BenchmarkFig11Environments measures a query on the suburban setting of
// Fig 11 (different propagation parameters than downtown).
func BenchmarkFig11Environments(b *testing.B) {
	sc := sim.DefaultScenario(4343, city.TwoLaneSuburb)
	sc.DistanceM = 900
	r := sim.Execute(sc)
	times := r.QueryTimes(32, 2)
	p := core.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Query(times[i%len(times)], p)
	}
}

// BenchmarkFig12VsGPS measures the combined RUPS + GPS query of the
// comparison experiment.
func BenchmarkFig12VsGPS(b *testing.B) {
	r, times := getBenchRun(b)
	p := core.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := r.Query(times[i%len(times)], p)
		_ = q.GPSRDE
	}
}

// --- §V cost model -------------------------------------------------------

// syntheticPair builds two dense 1 km trajectories with a known overlap,
// isolating the SYN search from the simulation.
func syntheticPair() (*trajectory.Aware, *trajectory.Aware) {
	area := gsm.Bounds{MinX: 0, MinY: 0, MaxX: 3000, MaxY: 3000}
	f := gsm.NewField(7, gsm.GenerateTowers(7, area, gsm.ConstZone(gsm.Urban)), gsm.ConstZone(gsm.Urban))
	build := func(startX float64, t0 float64) *trajectory.Aware {
		const n = 1000
		g := trajectory.Geo{Marks: make([]trajectory.GeoMark, n)}
		for i := range g.Marks {
			g.Marks[i] = trajectory.GeoMark{Theta: math.Pi / 2, T: t0 + float64(i)/12}
		}
		a := trajectory.NewAware(g)
		for i := 0; i < n; i++ {
			pos := geo.Vec2{X: startX + float64(i), Y: 1500}
			for ch := 0; ch < gsm.NumChannels; ch++ {
				a.SetPower(ch, i, f.Sample(pos, ch, g.Marks[i].T))
			}
		}
		return a
	}
	return build(500, 1000), build(525, 998)
}

var (
	pairOnce sync.Once
	pairA    *trajectory.Aware
	pairB    *trajectory.Aware
)

func getPair() (*trajectory.Aware, *trajectory.Aware) {
	pairOnce.Do(func() { pairA, pairB = syntheticPair() })
	return pairA, pairB
}

// findSYNs runs one sequential multi-SYN search (up to p.NumSYN points)
// on a fresh searcher.
func findSYNs(a, b *trajectory.Aware, p core.Params) []core.SYNPoint {
	s := core.NewSearcher(a, b, p)
	defer s.Release()
	return s.FindSYNs(p.NumSYN, core.Sequential)
}

// BenchmarkSynSearch is the §V-A claim: one double-sliding SYN search over
// a 1 km context with a 45-channel × 85 m window (paper: ~1.2 ms on an
// i7-2640M).
func BenchmarkSynSearch(b *testing.B) {
	a, bb := getPair()
	p := core.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := core.FindSYN(a, bb, p); !ok {
			b.Fatal("no SYN on overlapping synthetic pair")
		}
	}
}

// BenchmarkSynSearchUnbounded ablates the locality bound: the search
// examines every window position (the paper's full O(m·w·k)).
func BenchmarkSynSearchUnbounded(b *testing.B) {
	a, bb := getPair()
	p := core.DefaultParams()
	p.MaxRelDistM = 1 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.FindSYN(a, bb, p)
	}
}

// BenchmarkSynSearchAllChannels ablates the top-45 channel selection.
func BenchmarkSynSearchAllChannels(b *testing.B) {
	a, bb := getPair()
	p := core.DefaultParams()
	p.WindowChannels = gsm.NumChannels
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.FindSYN(a, bb, p)
	}
}

// BenchmarkSynSearchSingleSided ablates the double-sliding check.
func BenchmarkSynSearchSingleSided(b *testing.B) {
	a, bb := getPair()
	p := core.DefaultParams()
	p.SingleSided = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.FindSYN(a, bb, p)
	}
}

// BenchmarkSynSearchNoColumnTerm ablates Eq. 2's second term.
func BenchmarkSynSearchNoColumnTerm(b *testing.B) {
	a, bb := getPair()
	p := core.DefaultParams()
	p.NoColumnTerm = true
	p.Coherency = 0.6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.FindSYN(a, bb, p)
	}
}

// BenchmarkFindSYNs measures the full multi-SYN search (NumSYN = 5
// segment offsets, both sliding directions each) over a 1 km context —
// the per-query cost the engine amortizes by sharing the target-side
// scorer precomputation across all segments and directions.
func BenchmarkFindSYNs(b *testing.B) {
	a, bb := getPair()
	p := core.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if syns := findSYNs(a, bb, p); len(syns) == 0 {
			b.Fatal("no SYNs on overlapping synthetic pair")
		}
	}
}

// BenchmarkSearcherInstrumented is BenchmarkFindSYNs with the telemetry
// layer explicitly disabled — the overhead guard for the instrument
// sites. b.ReportAllocs pins the disabled hot path at the same allocs/op
// as the uninstrumented baseline, and its ns/op should stay within ~2% of
// BenchmarkFindSYNs run alongside it (go test -bench 'FindSYNs$|Instrumented$'
// -count 10, compared with benchstat).
func BenchmarkSearcherInstrumented(b *testing.B) {
	obs.Disable()
	obs.SetRecorder(nil)
	a, bb := getPair()
	p := core.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if syns := findSYNs(a, bb, p); len(syns) == 0 {
			b.Fatal("no SYNs on overlapping synthetic pair")
		}
	}
}

// BenchmarkSearcherInstrumentedEnabled is the same workload with a live
// registry and span recorder — the enabled-path price tag.
func BenchmarkSearcherInstrumentedEnabled(b *testing.B) {
	obs.Enable(obs.NewRegistry())
	obs.SetRecorder(obs.NewRecorder(obs.DefaultRingSize))
	defer func() {
		obs.Disable()
		obs.SetRecorder(nil)
	}()
	a, bb := getPair()
	p := core.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if syns := findSYNs(a, bb, p); len(syns) == 0 {
			b.Fatal("no SYNs on overlapping synthetic pair")
		}
	}
}

// syntheticConvoy builds n dense 1 km trajectories staggered 25 m apart
// along the same road — the batch-resolution workload.
func syntheticConvoy(n int) []*trajectory.Aware {
	area := gsm.Bounds{MinX: 0, MinY: 0, MaxX: 3000, MaxY: 3000}
	f := gsm.NewField(7, gsm.GenerateTowers(7, area, gsm.ConstZone(gsm.Urban)), gsm.ConstZone(gsm.Urban))
	out := make([]*trajectory.Aware, n)
	for vi := 0; vi < n; vi++ {
		const m = 1000
		g := trajectory.Geo{Marks: make([]trajectory.GeoMark, m)}
		t0 := 1000 - 2*float64(vi)
		for i := range g.Marks {
			g.Marks[i] = trajectory.GeoMark{Theta: math.Pi / 2, T: t0 + float64(i)/12}
		}
		a := trajectory.NewAware(g)
		startX := 500 + 25*float64(n-1-vi)
		for i := 0; i < m; i++ {
			pos := geo.Vec2{X: startX + float64(i), Y: 1500}
			for ch := 0; ch < gsm.NumChannels; ch++ {
				a.SetPower(ch, i, f.Sample(pos, ch, g.Marks[i].T))
			}
		}
		out[vi] = a
	}
	return out
}

var (
	convoyOnce  sync.Once
	convoyTrajs []*trajectory.Aware
)

func getConvoy() []*trajectory.Aware {
	convoyOnce.Do(func() { convoyTrajs = syntheticConvoy(6) })
	return convoyTrajs
}

// allPairs lists every unordered pair (i < j) of n admitted slots as
// queries without identity: the cold oracle.
func allPairs(n int) []engine.Query {
	var qs []engine.Query
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			qs = append(qs, engine.Query{A: i, B: j})
		}
	}
	return qs
}

// BenchmarkEngineResolve measures one batch tick of the concurrent engine:
// all 15 pairs of a 6-vehicle convoy resolved over the worker pool
// (admission snapshots included — they are part of every real tick).
func BenchmarkEngineResolve(b *testing.B) {
	trajs := getConvoy()
	p := core.DefaultParams()
	e := engine.New(0)
	defer e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, err := e.Admit(trajs...)
		if err != nil {
			b.Fatal(err)
		}
		if res := batch.Resolve(allPairs(batch.Len()), p, 0, core.Staleness{}); len(res) != 15 {
			b.Fatal("wrong pair count")
		}
	}
}

// BenchmarkEngineResolveSequential is the same batch answered by the
// sequential core.Resolve oracle — the speedup denominator.
func BenchmarkEngineResolveSequential(b *testing.B) {
	trajs := getConvoy()
	p := core.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for x := 0; x < len(trajs); x++ {
			for y := x + 1; y < len(trajs); y++ {
				core.Resolve(trajs[x], trajs[y], p)
			}
		}
	}
}

// staggeredPair builds two dense 1 km trajectories 150 m apart — far
// enough inside the ±MaxRelDistM locality bound that the centre-out scan
// walks most of the placement range before branch-and-bound can prune.
func staggeredPair() (*trajectory.Aware, *trajectory.Aware) {
	area := gsm.Bounds{MinX: 0, MinY: 0, MaxX: 3000, MaxY: 3000}
	f := gsm.NewField(11, gsm.GenerateTowers(11, area, gsm.ConstZone(gsm.Urban)), gsm.ConstZone(gsm.Urban))
	build := func(startX float64, t0 float64) *trajectory.Aware {
		const n = 1000
		g := trajectory.Geo{Marks: make([]trajectory.GeoMark, n)}
		for i := range g.Marks {
			g.Marks[i] = trajectory.GeoMark{Theta: math.Pi / 2, T: t0 + float64(i)/12}
		}
		a := trajectory.NewAware(g)
		for i := 0; i < n; i++ {
			pos := geo.Vec2{X: startX + float64(i), Y: 1500}
			for ch := 0; ch < gsm.NumChannels; ch++ {
				a.SetPower(ch, i, f.Sample(pos, ch, g.Marks[i].T))
			}
		}
		return a
	}
	return build(500, 1000), build(650, 999)
}

// steadyViews is a tick ladder of growing prefixes of the staggered pair —
// the steady-state re-resolve workload: same pair, a few more metres of
// context each tick.
var (
	steadyOnce  sync.Once
	steadyViews [][2]*trajectory.Aware
)

func getSteadyViews() [][2]*trajectory.Aware {
	steadyOnce.Do(func() {
		a, bb := staggeredPair()
		for _, tk := range []float64{1062, 1068, 1074, 1080} {
			steadyViews = append(steadyViews,
				[2]*trajectory.Aware{a.PrefixUntil(tk), bb.PrefixUntil(tk)})
		}
	})
	return steadyViews
}

// BenchmarkEngineSteadyState: each tick of the ladder admitted and
// resolved through ResolvePairsAt on one persistent engine, the pair named
// by its identity — the steady-state re-resolve path. Every scan starts
// from its range midpoint, exactly as the core.Resolve oracle's.
func BenchmarkEngineSteadyState(b *testing.B) {
	views := getSteadyViews()
	p := core.DefaultParams()
	e := engine.New(0)
	defer e.Close()
	pairs := [][2]int{{0, 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := views[i%len(views)]
		batch, err := e.Admit(v[0], v[1])
		if err != nil {
			b.Fatal(err)
		}
		if r := batch.ResolvePairsAt(pairs, p, 0, core.Staleness{}); !r[0].OK {
			b.Fatal("staggered pair did not resolve")
		}
	}
}

// BenchmarkTrajCorr measures the reference Eq. 2 implementation on a
// 45×85 window pair.
func BenchmarkTrajCorr(b *testing.B) {
	a, bb := getPair()
	wa := a.Window(0, 85)[:45]
	wb := bb.Window(0, 85)[:45]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.TrajCorr(wa, wb)
	}
}

// BenchmarkV2VExchange is the §V-B claim: shipping a 1 km journey context
// over 802.11p WSMs through the reliable sync — chunked, framed, acked —
// on a clean link (paper: ~182 KB, ~130 packets, ~0.52 s).
func BenchmarkV2VExchange(b *testing.B) {
	a, _ := getPair()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, ack := link.New(link.Params{Seed: 3}, 0), link.New(link.Params{Seed: 3}, 1)
		s := v2v.NewSession(a, data, ack, v2v.SyncConfig{})
		for round := 1; round == 1 || !s.Quiescent(); round++ {
			s.Step(round, math.Inf(1))
		}
		if s.Copy().Len() != a.Len() || data.Usage().Bytes > 182*1024 {
			b.Fatalf("exchange delivered %d/%d marks in %d bytes", s.Copy().Len(), a.Len(), data.Usage().Bytes)
		}
	}
}

// BenchmarkIncrementalTracking is the §V-B scalability claim: one 10 Hz
// tracking delta (a few new metres) instead of a full context transfer.
func BenchmarkIncrementalTracking(b *testing.B) {
	a, _ := getPair()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := v2v.MakeDelta(a, a.Len()-2)
		if err != nil {
			b.Fatal(err)
		}
		if frames := v2v.DataFrames(d, obs.TraceRef{}, 0); len(frames) > 1 {
			b.Fatalf("delta needed %d frames", len(frames))
		}
	}
}

// BenchmarkWireMarshal measures encoding a trajectory in the codec alone,
// as consecutive maximal chunks.
func BenchmarkWireMarshal(b *testing.B) {
	a, _ := getPair()
	cells := make([]uint8, trajectory.MaxChunkMarks*a.Width())
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for at := 0; at < a.Len(); at += trajectory.MaxChunkMarks {
			buf = trajectory.AppendChunk(buf, a.CopyChunk(at, min(trajectory.MaxChunkMarks, a.Len()-at), cells))
		}
	}
}

// BenchmarkFieldSampleVector measures one full 194-channel power-vector
// read of the radio environment (the substrate's hot path).
func BenchmarkFieldSampleVector(b *testing.B) {
	area := gsm.Bounds{MinX: 0, MinY: 0, MaxX: 3000, MaxY: 3000}
	f := gsm.NewField(9, gsm.GenerateTowers(9, area, gsm.ConstZone(gsm.Downtown)), gsm.ConstZone(gsm.Downtown))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SampleVector(geo.Vec2{X: 1000 + float64(i%500), Y: 1500}, float64(i))
	}
}

// BenchmarkPlatoonStep measures the distributed protocol: one full
// 2-vehicle linked-convoy run (10 Hz sync over a clean link, 2 Hz pair
// queries) over a short drive, with the expensive per-vehicle pipelines
// built once outside the loop.
func BenchmarkPlatoonStep(b *testing.B) {
	sc := sim.DefaultScenario(9999, city.EightLaneUrban)
	sc.DistanceM = 400
	run := sim.ExecuteConvoy(sc, 2)
	t0, t1 := run.TimeSpan()
	e := engine.New(0)
	defer e.Close()
	p := core.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lc := sim.NewLinkedConvoy(run, link.Params{Seed: 9999}, v2v.SyncConfig{}, core.Staleness{})
		queries := 0
		for k := 1; t0+float64(k)*0.1 <= t1; k++ {
			lc.Advance(t0 + float64(k)*0.1)
			if k%5 == 0 {
				res, err := lc.ResolveAllAt(e, t0+float64(k)*0.1, p)
				if err != nil {
					b.Fatal(err)
				}
				queries += len(res)
			}
		}
		if queries == 0 {
			b.Fatal("protocol produced no queries")
		}
	}
}

// BenchmarkQuerySequential and BenchmarkQueryParallel measure the query
// fan-out: evaluating a batch of 32 relative-distance queries one by one vs
// over the worker pool.
func BenchmarkQuerySequential(b *testing.B) {
	r, times := getBenchRun(b)
	p := core.DefaultParams()
	batch := times[:32]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.QueryManyParallel(batch, p, 1)
	}
}

func BenchmarkQueryParallel(b *testing.B) {
	r, times := getBenchRun(b)
	p := core.DefaultParams()
	batch := times[:32]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.QueryMany(batch, p) // GOMAXPROCS workers
	}
}
