// Package fm simulates the FM broadcast band (87.5–108 MHz) as a second
// ambient fingerprinting source — the paper's first future-work direction
// (§VII: "further improve the accuracy of RUPS by involving other ambient
// wireless signals such as the 3G/4G, FM and TV bands").
//
// FM differs from GSM in ways that matter for fingerprinting: far fewer
// carriers (a metro area receives a few dozen stations instead of 194
// cells), much stronger and taller transmitters (city-wide coverage, so
// path loss varies slowly), and a ~3 m wavelength, so multipath fading
// decorrelates over metres rather than fractions of a metre. FM rows are
// therefore individually less discriminative but almost never missing and
// far more robust to scan gaps — complementary to GSM.
package fm

import (
	"fmt"
	"math"

	"rups/internal/geo"
	"rups/internal/gsm"
	"rups/internal/noise"
)

// NumStations is the number of receivable FM broadcast stations in the
// simulated metro area.
const NumStations = 28

// StationFreqMHz returns the carrier frequency of station index i, spread
// over the 87.5–108 MHz band on the 100 kHz grid.
func StationFreqMHz(i int) float64 {
	if i < 0 || i >= NumStations {
		panic(fmt.Sprintf("fm: station index %d out of range", i))
	}
	return 87.7 + float64(i)*(108.0-88.0)/NumStations
}

// Propagation constants of the FM model.
const (
	txPowerDBm = 42.0 // ERP net of the receiving antenna in a vehicle cabin
	refDistM   = 100.0
	refLossDB  = 60.0
	pathExp    = 2.5 // high antennas: near free-space decay
	// Shadowing and fading scales; see the package comment for why they
	// are smoother than GSM's.
	shadowSigmaDB = 4.0
	shadowCorrM   = 250.0
	fadeSigmaDB   = 4.5
	fadeCorrM     = 2.6
	// Temporal drift: broadcast carriers are extremely stable; what varies
	// is the propagation environment.
	driftSigmaDB = 1.5
	driftTauS    = 1200.0
	// coverLossDB is the extra attenuation under an elevated deck — much
	// milder than GSM's because the long wavelength diffracts around the
	// structure.
	coverLossDB = 3.0
)

// Field is the deterministic FM RSSI field. It implements the same
// Sample(pos, ch, t) contract as gsm.Field, so the scanner can drive both
// through one interface.
type Field struct {
	seed     uint64
	stations []geo.Vec2
	zone     gsm.Zoning
}

// NewField places NumStations transmitters deterministically on a wide ring
// around (and a few inside) the area.
func NewField(seed uint64, area gsm.Bounds, zone gsm.Zoning) *Field {
	f := &Field{seed: seed, zone: zone}
	cx := (area.MinX + area.MaxX) / 2
	cy := (area.MinY + area.MaxY) / 2
	span := math.Max(area.MaxX-area.MinX, area.MaxY-area.MinY)
	for i := 0; i < NumStations; i++ {
		ang := 2 * math.Pi * noise.Uniform(seed, uint64(i), 1)
		// Most stations sit well outside the drive area (broadcast masts on
		// the outskirts); a few are downtown towers.
		rad := span * (0.7 + 1.3*noise.Uniform(seed, uint64(i), 2))
		if i%7 == 0 {
			rad = span * 0.2 * noise.Uniform(seed, uint64(i), 3)
		}
		f.stations = append(f.stations, geo.Vec2{
			X: cx + rad*math.Cos(ang),
			Y: cy + rad*math.Sin(ang),
		})
	}
	return f
}

// Channels implements the scanner source contract.
func (f *Field) Channels() int { return NumStations }

// Reader implements the scanner source contract. The FM field has no memo
// to keep, so its path reader is Sample itself.
func (f *Field) Reader() func(pos geo.Vec2, ch int, t float64) float64 { return f.Sample }

// Sample returns the RSSI in dBm of station ch at (pos, t), clamped to the
// receiver's dynamic range.
func (f *Field) Sample(pos geo.Vec2, ch int, t float64) float64 {
	if ch < 0 || ch >= NumStations {
		panic(fmt.Sprintf("fm: station %d out of range", ch))
	}
	st := f.stations[ch]
	d := pos.Dist(st)
	if d < refDistM {
		d = refDistM
	}
	link := uint64(ch)

	shadow := noise.Field2D{
		Seed:  noise.Hash(f.seed, link, 0x5AAD),
		Scale: shadowCorrM,
	}.At(pos.X, pos.Y) * shadowSigmaDB
	fade := noise.Field2D{
		Seed:  noise.Hash(f.seed, link, 0xFADE),
		Scale: fadeCorrM,
	}.At(pos.X, pos.Y) * fadeSigmaDB
	drift := noise.Field1D{
		Seed:  noise.Hash(f.seed, link, 0x510),
		Scale: driftTauS,
	}.At(t) * driftSigmaDB

	rx := txPowerDBm - refLossDB - 10*pathExp*math.Log10(d/refDistM) +
		shadow + fade + drift
	if f.zone != nil && f.zone.EnvAt(pos) == gsm.UnderElevated {
		rx -= coverLossDB
	}
	if rx < gsm.NoiseFloorDBm {
		rx = gsm.NoiseFloorDBm
	}
	if rx > gsm.SaturationDBm {
		rx = gsm.SaturationDBm
	}
	return rx
}
