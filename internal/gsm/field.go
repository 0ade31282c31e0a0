package gsm

import (
	"math"

	"rups/internal/geo"
	"rups/internal/noise"
)

// Field is the deterministic ambient RSSI field: Sample answers "what does a
// receiver at position p read on channel ch at time t?". It is pure — the
// same query always returns the same value — which is what makes the whole
// evaluation trace-driven and reproducible. Once built (perturbers
// attached), a Field is immutable and safe for concurrent use; each
// sequential reader takes its own Reader, which belongs to one goroutine.
type Field struct {
	seed     uint64
	towers   []Tower
	zone     Zoning
	temporal TemporalParams
	// shadowSeed[k] is the shadowing lattice seed of towers[k].
	shadowSeed []uint64
	// byChannel[ch] lists the links transmitting on ch; numLinks counts
	// them over all channels.
	byChannel [NumChannels][]link
	numLinks  int
	perturbs  []Perturber
}

// link is one (tower, carrier) pair with its lattice seeds precomputed.
type link struct {
	tower int    // index into Field.towers
	id    int    // dense index, 0..numLinks-1, of the link's reader memo
	key   uint64 // tower ID << 16 | channel: the day offset's address
	// Lattice seeds of the fine and mid fading fields and of the slow,
	// fast and burst drift processes.
	fine, mid, slow, fast, burst uint64
	// The first carrier of a cell is its BCCH beacon: always on, never
	// power-controlled, slightly hotter than traffic carriers. Traffic
	// (TCH) carriers fluctuate with load and downlink power control.
	bcch bool
}

// audibleRangeM is the distance beyond which a tower's contribution is below
// the noise floor and skipped.
const audibleRangeM = 4000.0

// NewField builds the RSSI field for the given towers and zoning, with the
// calibrated default temporal dynamics.
func NewField(seed uint64, towers []Tower, zone Zoning) *Field {
	f := &Field{
		seed:       seed,
		towers:     towers,
		zone:       zone,
		temporal:   DefaultTemporalParams(),
		shadowSeed: make([]uint64, len(towers)),
	}
	for i := range f.towers {
		tw := &f.towers[i]
		f.shadowSeed[i] = noise.Hash(seed, uint64(tw.ID), 0x5AAD)
		for _, ch := range tw.Channels {
			key := uint64(tw.ID)<<16 | uint64(ch)
			f.byChannel[ch] = append(f.byChannel[ch], link{
				tower: i,
				id:    f.numLinks,
				key:   key,
				fine:  noise.Hash(seed, key, 0xFADE),
				mid:   noise.Hash(seed, key, 0xFAD2),
				slow:  noise.Hash(seed, key, 0x510),
				fast:  noise.Hash(seed, key, 0xFA5),
				burst: noise.Hash(seed, key, 0xB42),
				bcch:  ch == tw.Channels[0],
			})
			f.numLinks++
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
	return f.sample(pos, ch, t, nil)
}

// Reader returns a path reader: a function that returns exactly Sample's
// values, bit for bit, but remembers the lattice corners it has drawn —
// per tower for shadowing, per link for fading, drift and the day offset —
// so that a sequence of nearby reads (a scan along a drive, every channel
// at one point) draws each corner once. Reads may come in any order; the
// memo only decides what is redrawn. A reader belongs to one goroutine and
// holds about 270 bytes per link.
func (f *Field) Reader() func(pos geo.Vec2, ch int, t float64) float64 {
	m := &pathMemo{
		shadow: make([]noise.Memo2D, len(f.towers)),
		links:  make([]linkMemo, f.numLinks),
	}
	return func(pos geo.Vec2, ch int, t float64) float64 { return f.sample(pos, ch, t, m) }
}

// pathMemo is a path reader's memory of lattice corners, indexed densely by
// tower and by link.
type pathMemo struct {
	shadow []noise.Memo2D
	links  []linkMemo
}

// linkMemo holds one link's last fading cells, drift cells and day offset.
type linkMemo struct {
	fine, mid         noise.Memo2D
	slow, fast, burst noise.Memo1D
	day               dayMemo
}

// dayMemo holds a link's day offset variate for the last day read.
type dayMemo struct {
	day uint64
	g   float64
	ok  bool
}

// dayOffset returns the link's per-day offset variate, reusing m's when
// it is for the same day. A nil m draws it.
func (f *Field) dayOffset(l *link, day uint64, m *dayMemo) float64 {
	if m != nil && m.ok && m.day == day {
		return m.g
	}
	g := noise.Gaussian(f.seed, l.key, 0xDA4, day)
	if m != nil {
		*m = dayMemo{day: day, g: g, ok: true}
	}
	return g
}

// sample is Sample's evaluation over an optional path memo: with m nil
// every lattice corner is drawn, otherwise m supplies those it holds.
func (f *Field) sample(pos geo.Vec2, ch int, t float64, m *pathMemo) float64 {
	env := f.zone.EnvAt(pos)
	p := DefaultEnvParams(env)
	tp := f.temporal
	day := uint64(math.Floor(t / 86400))

	total := math.Pow(10, NoiseFloorDBm/10)
	links := f.byChannel[ch]
	for k := range links {
		l := &links[k]
		tw := &f.towers[l.tower]
		d := pos.Dist(tw.Pos)
		if d > audibleRangeM {
			continue
		}
		var shadowM, fineM, midM *noise.Memo2D
		var slowM, fastM, burstM *noise.Memo1D
		var dayM *dayMemo
		if m != nil {
			lm := &m.links[l.id]
			shadowM, fineM, midM = &m.shadow[l.tower], &lm.fine, &lm.mid
			slowM, fastM, burstM, dayM = &lm.slow, &lm.fast, &lm.burst, &lm.day
		}

		// Frozen spatial structure: per-tower shadowing, per-link fading.
		shadow := float64(noise.Field2D{
			Seed:  f.shadowSeed[l.tower],
			Scale: p.ShadowCorrLenM,
		}.AtMemo(pos.X, pos.Y, shadowM) * p.ShadowSigmaDB)
		fade := float64(noise.Field2D{
			Seed:  l.fine,
			Scale: p.FadeFineLenM,
		}.AtMemo(pos.X, pos.Y, fineM)*p.FadeFineSigmaDB) +
			float64(noise.Field2D{
				Seed:  l.mid,
				Scale: p.FadeMidLenM,
			}.AtMemo(pos.X, pos.Y, midM)*p.FadeMidSigmaDB)

		// Slow dynamics: two drift processes plus a per-day offset. BCCH
		// beacons barely participate in the fast/burst churn.
		fastScale, burstScale, boost := 1.0, 1.0, 0.0
		if l.bcch {
			fastScale, burstScale, boost = 0.3, 0.15, 3.0
		}
		drift := float64(noise.Field1D{
			Seed:  l.slow,
			Scale: tp.SlowTauS,
		}.AtMemo(t, slowM)*tp.SlowSigmaDB) +
			float64(noise.Field1D{
				Seed:  l.fast,
				Scale: tp.FastTauS,
			}.AtMemo(t, fastM)*tp.FastSigmaDB*fastScale) +
			float64(noise.Field1D{
				Seed:  l.burst,
				Scale: tp.BurstTauS,
			}.AtMemo(t, burstM)*tp.BurstSigmaDB*burstScale) +
			float64(f.dayOffset(l, day, dayM)*tp.DaySigmaDB)

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
// what an idealized instantaneous scan of the whole band would read. Its
// channels share one path reader, so each tower's shadowing is drawn once.
func (f *Field) SampleVector(pos geo.Vec2, t float64) []float64 {
	read := f.Reader()
	v := make([]float64, NumChannels)
	for ch := range v {
		v[ch] = read(pos, ch, t)
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
