// Package gsm simulates the ambient GSM radio environment that RUPS
// fingerprints: the R-GSM-900 band plan, base-station towers, and a
// deterministic RSSI field over space, channel, and time.
//
// The field is the sum (in linear power) of per-tower contributions, each
// shaped by log-distance path loss, a frozen spatially-correlated shadowing
// field, a frozen sub-metre multipath fading field, and a slowly varying
// temporal drift. The model is calibrated (see params.go and the calibration
// tests) so that the three empirical properties the paper measures in §III —
// temporary stability, geographical uniqueness, and fine resolution — emerge
// from the simulation rather than being asserted.
package gsm

import "fmt"

// NumChannels is the number of carriers in the R-GSM-900 band the paper
// scans: ARFCNs 0–124 (primary GSM-900) plus 955–1023 (railway extension),
// 194 channels in total, coverable in 2.85 s at ~15 ms per channel.
const NumChannels = 194

// ChannelARFCN returns the absolute radio-frequency channel number of
// channel index i ∈ [0, NumChannels). Indices 0–124 map to ARFCN 0–124 and
// indices 125–193 map to ARFCN 955–1023.
func ChannelARFCN(i int) int {
	if i < 0 || i >= NumChannels {
		panic(fmt.Sprintf("gsm: channel index %d out of range", i))
	}
	if i <= 124 {
		return i
	}
	return 955 + (i - 125)
}

// ChannelIndex is the inverse of ChannelARFCN. It panics on an ARFCN outside
// the R-GSM-900 band.
func ChannelIndex(arfcn int) int {
	switch {
	case arfcn >= 0 && arfcn <= 124:
		return arfcn
	case arfcn >= 955 && arfcn <= 1023:
		return 125 + (arfcn - 955)
	default:
		panic(fmt.Sprintf("gsm: ARFCN %d not in R-GSM-900", arfcn))
	}
}

// ChannelFreqMHz returns the downlink centre frequency of channel index i in
// MHz. Primary band: 935 + 0.2·N; railway extension: 935 + 0.2·(N−1024).
func ChannelFreqMHz(i int) float64 {
	n := ChannelARFCN(i)
	if n <= 124 {
		return 935.0 + float64(0.2*float64(n))
	}
	return 935.0 + float64(0.2*float64(n-1024))
}

// NoiseFloorDBm is the receiver sensitivity floor. Channels with no audible
// tower read as thermal noise around this level.
const NoiseFloorDBm = -110.0

// SaturationDBm is the strongest RSSI the scanning hardware reports.
const SaturationDBm = -40.0

// Excess converts an RSSI in dBm to "level above the noise floor" in dB.
// Pearson correlation (Eq. 1) is shift-invariant, but the relative-change
// metric of Eq. 3 is not: computed on raw dBm it would depend on the
// arbitrary dBm reference. All Eq. 3 computations therefore use this excess
// representation (documented substitution; see DESIGN.md §2).
func Excess(rssiDBm float64) float64 {
	return rssiDBm - NoiseFloorDBm
}
