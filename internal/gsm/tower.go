package gsm

import (
	"fmt"
	"math"

	"rups/internal/geo"
	"rups/internal/noise"
)

// Tower is one GSM base station broadcasting on a handful of carriers.
type Tower struct {
	ID       int
	Pos      geo.Vec2
	Channels []int   // channel indices (not ARFCNs) this cell transmits on
	EIRPdBm  float64 // effective radiated power of each carrier
}

// Zoning maps a world position to its radio environment class. The city
// package implements it; tests use ConstZone.
type Zoning interface {
	EnvAt(pos geo.Vec2) EnvClass
}

// ConstZone is a Zoning that returns the same class everywhere.
type ConstZone EnvClass

// EnvAt implements Zoning.
func (c ConstZone) EnvAt(geo.Vec2) EnvClass { return EnvClass(c) }

// Bounds is an axis-aligned region of the world plane, in metres.
type Bounds struct {
	MinX, MinY, MaxX, MaxY float64
}

// Contains reports whether p lies inside b.
func (b Bounds) Contains(p geo.Vec2) bool {
	return p.X >= b.MinX && p.X <= b.MaxX && p.Y >= b.MinY && p.Y <= b.MaxY
}

// Pad returns b grown by m metres on every side.
func (b Bounds) Pad(m float64) Bounds {
	return Bounds{b.MinX - m, b.MinY - m, b.MaxX + m, b.MaxY + m}
}

// channelsPerTower is how many carriers each cell transmits (BCCH plus a few
// TCHs).
const channelsPerTower = 7

// GenerateTowers lays out base stations over the padded bounds on a jittered
// grid whose local density follows the environment's TowerSpacingM: dense
// downtown, sparse in the suburbs. Channel assignments are deterministic in
// the seed, giving each of the 194 channels a few geographically scattered
// co-channel cells (frequency reuse) — the source of the field's
// geographical uniqueness.
func GenerateTowers(seed uint64, area Bounds, zone Zoning) []Tower {
	// Candidate sites on the finest grid; thin probabilistically to match
	// the local environment's target spacing.
	const baseSpacing = 500.0
	padded := area.Pad(2000) // audible towers beyond the driving area
	var towers []Tower
	id := 0
	row := 0
	for y := padded.MinY; y <= padded.MaxY; y += baseSpacing {
		col := 0
		for x := padded.MinX; x <= padded.MaxX; x += baseSpacing {
			key := uint64(row)<<32 | uint64(uint32(col))
			env := zone.EnvAt(geo.Vec2{X: x, Y: y})
			p := DefaultEnvParams(env)
			keep := (baseSpacing / p.TowerSpacingM) * (baseSpacing / p.TowerSpacingM)
			if noise.Uniform(seed, key, 0xA11CE) > keep {
				col++
				continue
			}
			jx := float64((noise.Uniform(seed, key, 1) - 0.5) * baseSpacing)
			jy := float64((noise.Uniform(seed, key, 2) - 0.5) * baseSpacing)
			towers = append(towers, Tower{
				ID:       id,
				Pos:      geo.Vec2{X: x + jx, Y: y + jy},
				Channels: pickChannels(seed, key),
				EIRPdBm:  TxPowerDBm + float64((noise.Uniform(seed, key, 3)-0.5)*6),
			})
			id++
			col++
		}
		row++
	}
	if len(towers) == 0 {
		panic(fmt.Sprintf("gsm: no towers generated for area %+v", area))
	}
	return towers
}

// pickChannels draws channelsPerTower distinct channel indices for a site.
func pickChannels(seed, key uint64) []int {
	chosen := make([]int, 0, channelsPerTower)
	used := make(map[int]bool, channelsPerTower)
	for k := uint64(0); len(chosen) < channelsPerTower; k++ {
		ch := int(noise.Hash(seed, key, 0xC4A2+k) % NumChannels)
		if used[ch] {
			continue
		}
		used[ch] = true
		chosen = append(chosen, ch)
	}
	return chosen
}

// pathLossDB is the log-distance model: free-space-at-reference plus
// 10·n·log10(d/d₀). Distances under the reference are clamped.
func pathLossDB(d, exponent float64) float64 {
	if d < refDistM {
		d = refDistM
	}
	return refLossDB + float64(10*exponent*math.Log10(d/refDistM))
}
