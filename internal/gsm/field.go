package gsm

import (
	"math"

	"rups/internal/geo"
	"rups/internal/noise"
)

// Field is the deterministic ambient RSSI field: Sample answers "what does a
// receiver at position p read on channel ch at time t?". It is pure — the
// same query always returns the same value — which is what makes the whole
// evaluation trace-driven and reproducible.
type Field struct {
	seed     uint64
	towers   []Tower
	zone     Zoning
	temporal TemporalParams
	// byChannel[ch] lists the towers transmitting on ch.
	byChannel [NumChannels][]*Tower
	perturbs  []Perturber
}

// audibleRangeM is the distance beyond which a tower's contribution is below
// the noise floor and skipped.
const audibleRangeM = 4000.0

// NewField builds the RSSI field for the given towers and zoning, with the
// calibrated default temporal dynamics.
func NewField(seed uint64, towers []Tower, zone Zoning) *Field {
	f := &Field{
		seed:     seed,
		towers:   towers,
		zone:     zone,
		temporal: DefaultTemporalParams(),
	}
	for i := range f.towers {
		t := &f.towers[i]
		for _, ch := range t.Channels {
			f.byChannel[ch] = append(f.byChannel[ch], t)
		}
	}
	return f
}

// AddPerturber attaches a transient perturbation (e.g. a passing truck) to
// the field.
func (f *Field) AddPerturber(p Perturber) { f.perturbs = append(f.perturbs, p) }

// Towers returns the field's base stations (read-only).
func (f *Field) Towers() []Tower { return f.towers }

// Channels implements the scanner source contract.
func (f *Field) Channels() int { return NumChannels }

// Sample returns the RSSI in dBm read on channel ch at position pos and
// time t, clamped to the receiver's dynamic range.
func (f *Field) Sample(pos geo.Vec2, ch int, t float64) float64 {
	env := f.zone.EnvAt(pos)
	p := DefaultEnvParams(env)
	day := uint64(math.Floor(t / 86400))

	total := math.Pow(10, NoiseFloorDBm/10)
	for _, tw := range f.byChannel[ch] {
		d := pos.Dist(tw.Pos)
		if d > audibleRangeM {
			continue
		}
		link := uint64(tw.ID)<<16 | uint64(ch)
		// The first carrier of a cell is its BCCH beacon: always on, never
		// power-controlled, slightly hotter than traffic carriers. Traffic
		// (TCH) carriers fluctuate with load and downlink power control.
		isBCCH := ch == tw.Channels[0]

		// Frozen spatial structure: per-tower shadowing, per-link fading.
		shadow := noise.Field2D{
			Seed:  noise.Hash(f.seed, uint64(tw.ID), 0x5AAD),
			Scale: p.ShadowCorrLenM,
		}.At(pos.X, pos.Y) * p.ShadowSigmaDB
		fade := noise.Field2D{
			Seed:  noise.Hash(f.seed, link, 0xFADE),
			Scale: p.FadeFineLenM,
		}.At(pos.X, pos.Y)*p.FadeFineSigmaDB +
			noise.Field2D{
				Seed:  noise.Hash(f.seed, link, 0xFAD2),
				Scale: p.FadeMidLenM,
			}.At(pos.X, pos.Y)*p.FadeMidSigmaDB

		// Slow dynamics: two drift processes plus a per-day offset. BCCH
		// beacons barely participate in the fast/burst churn.
		tp := f.temporal
		fastScale, burstScale, boost := 1.0, 1.0, 0.0
		if isBCCH {
			fastScale, burstScale, boost = 0.3, 0.15, 3.0
		}
		drift := noise.Field1D{
			Seed:  noise.Hash(f.seed, link, 0x510),
			Scale: tp.SlowTauS,
		}.At(t)*tp.SlowSigmaDB +
			noise.Field1D{
				Seed:  noise.Hash(f.seed, link, 0xFA5),
				Scale: tp.FastTauS,
			}.At(t)*tp.FastSigmaDB*fastScale +
			noise.Field1D{
				Seed:  noise.Hash(f.seed, link, 0xB42),
				Scale: tp.BurstTauS,
			}.At(t)*tp.BurstSigmaDB*burstScale +
			noise.Gaussian(f.seed, link, 0xDA4, day)*tp.DaySigmaDB

		rx := tw.EIRPdBm + boost - pathLossDB(d, p.PathLossExponent) - p.ExtraLossDB +
			shadow + fade + drift
		total += math.Pow(10, rx/10)
	}

	rssi := 10 * math.Log10(total)
	for _, pb := range f.perturbs {
		rssi -= pb.LossDB(pos, ch, t)
	}
	if rssi < NoiseFloorDBm {
		rssi = NoiseFloorDBm
	}
	if rssi > SaturationDBm {
		rssi = SaturationDBm
	}
	return rssi
}

// SampleVector returns the full 194-channel power vector at (pos, t) —
// what an idealized instantaneous scan of the whole band would read.
func (f *Field) SampleVector(pos geo.Vec2, t float64) []float64 {
	v := make([]float64, NumChannels)
	for ch := 0; ch < NumChannels; ch++ {
		v[ch] = f.Sample(pos, ch, t)
	}
	return v
}

// Perturber injects a transient, localized RSSI loss into the field —
// the mechanism behind the paper's "big vehicle passing by" outliers
// (Fig 10).
type Perturber interface {
	// LossDB returns the attenuation to apply at (pos, ch, t); 0 when the
	// perturbation does not apply.
	LossDB(pos geo.Vec2, ch int, t float64) float64
}

// RegionPerturbation attenuates a subset of channels inside a disc for a
// time window — a parked obstruction or localized interferer.
type RegionPerturbation struct {
	Center      geo.Vec2
	RadiusM     float64
	Start, End  float64 // seconds
	Loss        float64 // dB at the centre, tapering linearly to the rim
	ChannelFrac float64 // fraction of channels affected, in [0,1]
	Seed        uint64
}

// LossDB implements Perturber.
func (r RegionPerturbation) LossDB(pos geo.Vec2, ch int, t float64) float64 {
	if t < r.Start || t > r.End {
		return 0
	}
	d := pos.Dist(r.Center)
	if d > r.RadiusM {
		return 0
	}
	if noise.Uniform(r.Seed, uint64(ch), 0x9E4B) > r.ChannelFrac {
		return 0
	}
	return r.Loss * (1 - d/r.RadiusM)
}

// TrackPerturbation is a moving obstruction — a truck overtaking in the
// next lane — whose position is a function of time. A big vehicle both
// blocks some carriers (its body shadows the receiver) and reflects others
// (a large metal surface metres away boosts them), so affected channels
// take ±Loss dB: the mixed signs are what can *bias* a window match rather
// than merely weakening it, producing the paper's Fig 10 outliers.
type TrackPerturbation struct {
	// PosAt returns the obstruction's position at time t and whether it is
	// present at all (false outside its lifetime).
	PosAt       func(t float64) (geo.Vec2, bool)
	RadiusM     float64
	Loss        float64
	ChannelFrac float64
	Seed        uint64
}

// LossDB implements Perturber.
func (tp TrackPerturbation) LossDB(pos geo.Vec2, ch int, t float64) float64 {
	c, ok := tp.PosAt(t)
	if !ok {
		return 0
	}
	d := pos.Dist(c)
	if d > tp.RadiusM {
		return 0
	}
	if noise.Uniform(tp.Seed, uint64(ch), 0x9E4B) > tp.ChannelFrac {
		return 0
	}
	sign := 1.0
	if noise.Uniform(tp.Seed, uint64(ch), 0x516E) < 0.45 {
		sign = -1 // reflection gain on this carrier
	}
	return sign * tp.Loss * (1 - d/tp.RadiusM)
}
