// Package scanner simulates the bank of GSM scanning radios (the paper's
// Motorola C118 + OsmocomBB setup, §III-A and §VI-B). A radio dwells on one
// channel for ~15 ms, so a single radio needs 2.85 s to cover all 194
// R-GSM-900 channels; a moving vehicle therefore misses channels at any
// given metre. Multiple radios partition the channel list and scan in
// parallel, shrinking the gap — the knob behind the paper's Fig 9.
// Placement matters too: radios at the cabin centre sit behind more metal
// and read weaker, noisier signal than radios on the front instrument panel.
package scanner

import (
	"fmt"

	"rups/internal/geo"
	"rups/internal/gsm"
	"rups/internal/mobility"
	"rups/internal/noise"
	"rups/internal/trajectory"
)

// Source is any sampleable ambient RSSI field the radio bank can scan:
// gsm.Field, fm.Field, or a MultiSource concatenating several bands. A
// Source is pure and safe for concurrent use; a reader it returns belongs
// to the one goroutine that reads through it.
type Source interface {
	// Sample returns the RSSI in dBm at (pos, channel, time).
	Sample(pos geo.Vec2, ch int, t float64) float64
	// Reader returns a path reader: a function returning exactly Sample's
	// values, which may remember what earlier reads computed so that a
	// sequential reader (one scan) pays less per read.
	Reader() func(pos geo.Vec2, ch int, t float64) float64
	// Channels returns the band's carrier count.
	Channels() int
}

// MultiSource concatenates several bands into one channel space — the
// §VII multi-band extension. Channel indices 0..s₀-1 map to the first
// source, s₀..s₀+s₁-1 to the second, and so on.
type MultiSource struct {
	srcs    []Source
	offsets []int
	total   int
}

// NewMultiSource builds a concatenated source.
func NewMultiSource(srcs ...Source) *MultiSource {
	if len(srcs) == 0 {
		panic("scanner: MultiSource needs at least one source")
	}
	m := &MultiSource{srcs: srcs}
	for _, s := range srcs {
		m.offsets = append(m.offsets, m.total)
		m.total += s.Channels()
	}
	return m
}

// Channels implements Source.
func (m *MultiSource) Channels() int { return m.total }

// band returns the index of the source that owns channel ch.
func (m *MultiSource) band(ch int) int {
	if ch < 0 || ch >= m.total {
		panic(fmt.Sprintf("scanner: multi-source channel %d out of range", ch))
	}
	i := len(m.srcs) - 1
	for ch < m.offsets[i] {
		i--
	}
	return i
}

// Sample implements Source.
func (m *MultiSource) Sample(pos geo.Vec2, ch int, t float64) float64 {
	i := m.band(ch)
	return m.srcs[i].Sample(pos, ch-m.offsets[i], t)
}

// Reader implements Source by composing one reader per band.
func (m *MultiSource) Reader() func(pos geo.Vec2, ch int, t float64) float64 {
	reads := make([]func(geo.Vec2, int, float64) float64, len(m.srcs))
	for i, s := range m.srcs {
		reads[i] = s.Reader()
	}
	return func(pos geo.Vec2, ch int, t float64) float64 {
		i := m.band(ch)
		return reads[i](pos, ch-m.offsets[i], t)
	}
}

// Placement is where the radio group is installed in the vehicle.
type Placement int

const (
	// FrontPanel: on top of the instrument panel, good sky view through the
	// windshield (the paper's recommended placement).
	FrontPanel Placement = iota
	// CabinCenter: at the centre of the cabin, shielded by the body (the
	// paper's "4 central radios" configuration, which degrades accuracy).
	CabinCenter
)

// String names the placement for evaluation output.
func (p Placement) String() string {
	switch p {
	case FrontPanel:
		return "front"
	case CabinCenter:
		return "central"
	default:
		return "unknown"
	}
}

// placementEffect returns the extra attenuation and the measurement noise
// multiplier of a placement.
func placementEffect(p Placement) (lossDB, noiseMul float64) {
	switch p {
	case FrontPanel:
		return 0, 1
	case CabinCenter:
		return 9, 2.2
	default:
		panic(fmt.Sprintf("scanner: unknown placement %d", p))
	}
}

// DwellS is the per-channel scan dwell (§V-C: "it takes about 15ms to sense
// a channel").
const DwellS = 0.015

// Config parametrizes a radio bank.
type Config struct {
	Seed      uint64
	Radios    int
	Placement Placement
	// Channels to scan; nil means the full band.
	Channels []int
	// NoiseSigmaDB is the per-reading measurement noise (before the
	// placement multiplier).
	NoiseSigmaDB float64
}

// DefaultConfig returns a bank of n radios at the given placement scanning
// the full band.
func DefaultConfig(seed uint64, radios int, placement Placement) Config {
	return Config{
		Seed:         seed,
		Radios:       radios,
		Placement:    placement,
		NoiseSigmaDB: 1.0,
	}
}

// CycleS returns the time one full sweep of the configured band takes —
// 2.85 s for one radio over 194 channels, 135 ms for ten radios over a
// 90-channel subset (the §V-C arithmetic).
func (cfg Config) CycleS() float64 {
	n := len(cfg.Channels)
	if n == 0 {
		n = gsm.NumChannels
	}
	perRadio := (n + cfg.Radios - 1) / cfg.Radios
	return float64(perRadio) * DwellS
}

// Scan runs the radio bank along a drive and returns the time-ordered
// sample stream. Scanning starts with the trace and continues to its end;
// each radio sweeps its channel subset round-robin.
func Scan(tr *mobility.Trace, f Source, cfg Config) []trajectory.Sample {
	if cfg.Radios <= 0 {
		panic("scanner: need at least one radio")
	}
	channels := cfg.Channels
	if channels == nil {
		channels = make([]int, f.Channels())
		for i := range channels {
			channels[i] = i
		}
	}
	for _, ch := range channels {
		if ch < 0 || ch >= f.Channels() {
			panic(fmt.Sprintf("scanner: channel %d out of range", ch))
		}
	}
	loss, noiseMul := placementEffect(cfg.Placement)
	sigma := cfg.NoiseSigmaDB * noiseMul

	t0 := tr.States[0].T
	tEnd := tr.States[len(tr.States)-1].T
	steps := 0
	for t := t0; t <= tEnd; t += DwellS {
		steps++
	}
	read := f.Reader()

	// Each radio's stream is in time order: run r fills runs[r], and the
	// runs merge by (T, Ch), earlier radios first on a tie — the order a
	// stable sort of the concatenated runs gives.
	radios := min(cfg.Radios, len(channels))
	back := make([]trajectory.Sample, radios*steps)
	runs := make([][]trajectory.Sample, radios)
	for r := range runs {
		// Radio r owns channels[r], channels[r+Radios], ...
		var mine []int
		for i := r; i < len(channels); i += cfg.Radios {
			mine = append(mine, channels[i])
		}
		run := back[r*steps : r*steps : (r+1)*steps]
		k := uint64(0)
		for t := t0; t <= tEnd; t += DwellS {
			ch := mine[int(k)%len(mine)]
			pos := tr.At(t).Pos
			v := read(pos, ch, t) - loss +
				sigma*noise.Gaussian(cfg.Seed, uint64(r), k, 0x5CA9)
			if v < gsm.NoiseFloorDBm {
				v = gsm.NoiseFloorDBm
			}
			run = append(run, trajectory.Sample{T: t, Ch: ch, RSSI: v})
			k++
		}
		runs[r] = run
	}
	var samples []trajectory.Sample
	if len(back) > 0 {
		samples = mergeRuns(runs, make([]trajectory.Sample, 0, len(back)))
	}
	if c := scanSamples.Get(); c != nil {
		c.Add(uint64(len(samples)))
	}
	return samples
}

// mergeRuns appends the samples of runs, each ordered by (T, Ch), to out
// in (T, Ch) order; on equal keys the earlier run's sample comes first.
func mergeRuns(runs [][]trajectory.Sample, out []trajectory.Sample) []trajectory.Sample {
	for {
		best := -1
		for r, run := range runs {
			if len(run) > 0 && (best < 0 || before(run[0], runs[best][0])) {
				best = r
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, runs[best][0])
		runs[best] = runs[best][1:]
	}
}

// before orders samples by time, then channel.
func before(a, b trajectory.Sample) bool {
	return a.T < b.T || !(b.T < a.T) && a.Ch < b.Ch
}
