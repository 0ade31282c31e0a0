package eval

// The §III empirical-study experiments (Figs 1-4): they probe the GSM field
// directly, the way the paper's trace-collection campaign did with parked
// and slowly driven scanner cars.

import (
	"math"

	"rups/internal/geo"
	"rups/internal/gsm"
	"rups/internal/noise"
	"rups/internal/stats"
)

// fieldFor builds a standalone field of one environment class.
func fieldFor(seed uint64, env gsm.EnvClass) *gsm.Field {
	area := gsm.Bounds{MinX: 0, MinY: 0, MaxX: 4000, MaxY: 4000}
	return gsm.NewField(seed, gsm.GenerateTowers(seed, area, gsm.ConstZone(env)), gsm.ConstZone(env))
}

// measure reads a full power vector through a field reader, with
// scanner-grade measurement noise.
func measure(read func(geo.Vec2, int, float64) float64, pos geo.Vec2, t float64, seed uint64) []float64 {
	v := make([]float64, gsm.NumChannels)
	for ch := range v {
		v[ch] = read(pos, ch, t) + noise.Gaussian(seed, uint64(ch), math.Float64bits(t))
		if v[ch] < gsm.NoiseFloorDBm {
			v[ch] = gsm.NoiseFloorDBm
		}
	}
	return v
}

// roadTrajectory samples the 194×L channel-major matrix along a straight
// road at 1 m spacing, driven at speed starting at t0; day shifts the
// absolute clock by whole days (the Fig 3 workday/weekend axis). The whole
// road is read through one path reader.
func roadTrajectory(fd *gsm.Field, origin geo.Vec2, heading float64, L int, t0, speed float64, day int, seed uint64) [][]float64 {
	m := make([][]float64, gsm.NumChannels)
	for ch := range m {
		m[ch] = make([]float64, L)
	}
	read := fd.Reader()
	dir := geo.HeadingVec(heading)
	base := float64(day)*86400 + t0
	for j := 0; j < L; j++ {
		v := measure(read, origin.Add(dir.Scale(float64(j))), base+float64(j)/speed, seed)
		for ch := range v {
			m[ch][j] = v[ch]
		}
	}
	return m
}

// Fig1 regenerates the spectrogram comparison of Fig 1: RSSI trajectories
// on two different roads, with the first road entered twice. The paper
// makes the point qualitatively; we report the pairwise trajectory
// correlations, which is the quantitative content.
func Fig1(o Options) *Table {
	fd := fieldFor(o.Seed+101, gsm.Urban)
	const L = 150
	road1a := roadTrajectory(fd, geo.Vec2{X: 800, Y: 900}, math.Pi/2, L, 0, 8, 0, 1)
	road1b := roadTrajectory(fd, geo.Vec2{X: 800, Y: 900}, math.Pi/2, L, 1800, 8, 0, 2)
	road2 := roadTrajectory(fd, geo.Vec2{X: 2600, Y: 2900}, 0, L, 900, 8, 0, 3)

	t := &Table{
		ID:     "fig1",
		Title:  "R-GSM-900 trajectories on two roads, first road entered twice",
		Header: []string{"pair", "trajectory correlation (Eq.2, range [-2,2])"},
	}
	t.AddRow("road1 entry1 vs road1 entry2", f2(stats.TrajCorr(road1a, road1b)))
	t.AddRow("road1 entry1 vs road2", f2(stats.TrajCorr(road1a, road2)))
	t.AddRow("road1 entry2 vs road2", f2(stats.TrajCorr(road1b, road2)))
	t.Note("paper: same-road spectrograms look alike, different roads distinct (qualitative)")
	return t
}

// Fig2 regenerates the temporal-stability curves: P(pairwise power-vector
// correlation ≥ threshold) vs time difference, for 194 and 10 channels.
func Fig2(o Options) *Table {
	fd := fieldFor(o.Seed+202, gsm.Downtown)
	locations := o.n(20, 6)
	pairs := o.n(100, 30)
	deltas := []float64{5, 60, 300, 600, 900, 1200, 1500}

	type curve struct {
		thr float64
		n   int
	}
	curves := []curve{{0.8, 194}, {0.9, 194}, {0.8, 10}, {0.9, 10}}
	counts := make([][]int, len(curves))
	for i := range counts {
		counts[i] = make([]int, len(deltas))
	}

	read := fd.Reader()
	for loc := 0; loc < locations; loc++ {
		pos := geo.Vec2{
			X: 600 + 2800*noise.Uniform(o.Seed, 0xF2, uint64(loc), 1),
			Y: 600 + 2800*noise.Uniform(o.Seed, 0xF2, uint64(loc), 2),
		}
		sub := make([]int, 10)
		for i := range sub {
			sub[i] = int(noise.Hash(o.Seed, 0xF2A, uint64(loc), uint64(i)) % gsm.NumChannels)
		}
		for di, dt := range deltas {
			for p := 0; p < pairs; p++ {
				t1 := 3600 * noise.Uniform(o.Seed, 0xF2B, uint64(loc), uint64(di), uint64(p))
				a := measure(read, pos, t1, 11)
				b := measure(read, pos, t1+dt, 12)
				rFull := stats.Pearson(a, b)
				rSub := stats.Pearson(pick(a, sub), pick(b, sub))
				for ci, c := range curves {
					r := rFull
					if c.n == 10 {
						r = rSub
					}
					// A NaN correlation (all-missing window) must count as
					// "below threshold", not fall through the comparison.
					if stats.IsMissing(r) {
						continue
					}
					if r >= c.thr {
						counts[ci][di]++
					}
				}
			}
		}
	}
	total := float64(locations * pairs)
	t := &Table{
		ID:    "fig2",
		Title: "Temporal stability of GSM power vectors",
		Header: []string{"Δt (s)", "P(r≥0.80,194ch)", "P(r≥0.90,194ch)",
			"P(r≥0.80,10ch)", "P(r≥0.90,10ch)"},
	}
	for di, dt := range deltas {
		t.AddRow(f(dt),
			f2(float64(counts[0][di])/total), f2(float64(counts[1][di])/total),
			f2(float64(counts[2][di])/total), f2(float64(counts[3][di])/total))
	}
	t.Note("paper: P(r≥0.8,194ch) ≥ 0.95 over 25 min; strict threshold decays; 10-channel curves cross over")
	return t
}

func pick(v []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = v[j]
	}
	return out
}

// Fig3 regenerates the geographical-uniqueness CDFs: trajectory correlation
// of same-road re-entries vs different roads, on a workday and a weekend.
func Fig3(o Options) *Table {
	fd := fieldFor(o.Seed+303, gsm.Urban)
	roads := o.n(30, 8)
	const L = 150
	type road struct {
		origin  geo.Vec2
		heading float64
	}
	rs := make([]road, roads)
	for i := range rs {
		rs[i] = road{
			origin: geo.Vec2{
				X: 500 + 3000*noise.Uniform(o.Seed, 0xF3, uint64(i), 1),
				Y: 500 + 3000*noise.Uniform(o.Seed, 0xF3, uint64(i), 2),
			},
			heading: 2 * math.Pi * noise.Uniform(o.Seed, 0xF3, uint64(i), 3),
		}
	}
	var sameWork, sameWeekend, diffWork, diffWeekend []float64
	first := make([][][]float64, roads)
	days := []struct {
		day  int
		sink *[]float64
	}{{0, &sameWork}, {5, &sameWeekend}} // day 0 fills `first`; keep order
	for _, dc := range days {
		day, sink := dc.day, dc.sink
		reentry := make([][][]float64, roads)
		for i, r := range rs {
			if day == 0 {
				first[i] = roadTrajectory(fd, r.origin, r.heading, L, 0, 10, 0, 20+uint64(i))
			}
			reentry[i] = roadTrajectory(fd, r.origin, r.heading, L, 1800, 10, day, 40+uint64(i))
		}
		for i := 0; i < roads; i++ {
			*sink = append(*sink, stats.TrajCorr(first[i], reentry[i]))
		}
		diffSink := &diffWork
		if day != 0 {
			diffSink = &diffWeekend
		}
		for i := 0; i < roads; i++ {
			j := (i + 1) % roads
			*diffSink = append(*diffSink, stats.TrajCorr(first[i], reentry[j]))
		}
	}

	t := &Table{
		ID:    "fig3",
		Title: "CDF of trajectory correlation coefficients",
		Header: []string{"corr", "diff roads, weekend", "diff roads, workday",
			"same road, weekend", "same road, workday"},
	}
	cdDW := stats.NewCDF(diffWeekend)
	cdDK := stats.NewCDF(diffWork)
	cdSW := stats.NewCDF(sameWeekend)
	cdSK := stats.NewCDF(sameWork)
	for _, x := range []float64{-2, -1.5, -1, -0.5, 0, 0.5, 1, 1.2, 1.5, 2} {
		t.AddRow(f(x), f2(cdDW.At(x)), f2(cdDK.At(x)), f2(cdSW.At(x)), f2(cdSK.At(x)))
	}
	t.Note("mean same-road corr %.2f (work) %.2f (weekend); different-road %.2f / %.2f",
		stats.Mean(sameWork), stats.Mean(sameWeekend), stats.Mean(diffWork), stats.Mean(diffWeekend))
	ksD, ksP := stats.KolmogorovSmirnov(sameWork, diffWork)
	t.Note("same vs different roads: KS D=%.2f (p=%.2g) — complete separation has D=1", ksD, ksP)
	t.Note("paper: same-road coefficients far right of different-road; day type marginal")
	return t
}

// Fig4 regenerates the fine-resolution scatter: relative change (Eq. 3, on
// level above the noise floor) between power vectors k metres apart.
func Fig4(o Options) *Table {
	fd := fieldFor(o.Seed+404, gsm.Urban)
	origin := geo.Vec2{X: 700, Y: 1800}
	dir := geo.HeadingVec(math.Pi / 2)
	samples := o.n(1000, 120)
	read := fd.Reader()
	vec := func(s float64) []float64 {
		v := measure(read, origin.Add(dir.Scale(s)), 0, 77)
		for ch := range v {
			v[ch] = gsm.Excess(v[ch])
		}
		return v
	}
	t := &Table{
		ID:     "fig4",
		Title:  "Relative change of power vectors over distance",
		Header: []string{"distance (m)", "mean relative change", "p10", "p90"},
	}
	for _, k := range []float64{1, 2, 5, 10, 20, 40, 60, 80, 100, 120} {
		var vals []float64
		for i := 0; i < samples; i++ {
			s := float64(i) * 3.1
			vals = append(vals, stats.RelativeChange(vec(s), vec(s+k)))
		}
		t.AddRow(f(k), f2(stats.Mean(vals)),
			f2(stats.Quantile(vals, 0.1)), f2(stats.Quantile(vals, 0.9)))
	}
	t.Note("paper: mean relative change already above 0.4 at 1 m, rising gently to ~0.55-0.6 by 120 m")
	return t
}
