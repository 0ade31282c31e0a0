// Package v2v simulates the DSRC (IEEE 802.11p / WAVE) link RUPS exchanges
// trajectories over (paper §V-B): WAVE Short Messages with a 1400-byte
// payload and an average 4 ms round trip, so a one-kilometre journey
// context of ~182 KB takes about 130 WSMs ≈ 0.52 s. The link model covers
// fragmentation/reassembly, per-packet loss with retransmission, and the
// incremental tracking updates of the scalability discussion.
package v2v

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"rups/internal/noise"
	"rups/internal/trajectory"
)

// WSMPayload is the usable payload of one WAVE Short Message, bytes.
const WSMPayload = 1400

// PacketRTT is the average per-packet round-trip time, seconds.
const PacketRTT = 0.004

// fragHeader is the per-fragment overhead: message id (4), fragment index
// (4), fragment count (4).
const fragHeader = 12

// Link is a point-to-point DSRC link with independent per-packet loss.
type Link struct {
	Seed uint64
	// LossProb is the probability that a WSM needs retransmission.
	LossProb float64

	sent uint64
}

// Cost describes what one transfer took.
type Cost struct {
	Bytes    int     // payload bytes carried (before fragmentation overhead)
	Packets  int     // WSMs transmitted, including retransmissions
	Elapsed  float64 // seconds on the air
	Retrans  int     // retransmitted WSMs
	Fragment int     // distinct fragments
}

// Transfer simulates moving n payload bytes across the link and returns the
// accounting. It panics on a non-positive size.
func (l *Link) Transfer(n int) Cost {
	if n <= 0 {
		panic(fmt.Sprintf("v2v: transfer of %d bytes", n))
	}
	perFrag := WSMPayload - fragHeader
	frags := (n + perFrag - 1) / perFrag
	cost := Cost{Bytes: n, Fragment: frags}
	for f := 0; f < frags; f++ {
		for {
			cost.Packets++
			cost.Elapsed += PacketRTT
			l.sent++
			if noise.Uniform(l.Seed, l.sent, 0x105E) >= l.LossProb {
				break
			}
			cost.Retrans++
		}
	}
	return cost
}

// ExchangeTrajectory serializes a trajectory, moves it across the link, and
// decodes it on the far side — the full context exchange of §IV-A. It
// returns the received copy (quantized by the wire format) and the cost.
func ExchangeTrajectory(l *Link, a *trajectory.Aware) (*trajectory.Aware, Cost, error) {
	data, err := a.MarshalBinary()
	if err != nil {
		return nil, Cost{}, err
	}
	cost := l.Transfer(len(data))
	var out trajectory.Aware
	if err := out.UnmarshalBinary(data); err != nil {
		return nil, cost, err
	}
	return &out, cost, nil
}

// Delta is an incremental tracking update (§V-B): after a SYN point has
// been identified, a vehicle only streams its newest metres instead of the
// whole journey context, falling back to a full exchange when the
// accumulated error exceeds a threshold.
type Delta struct {
	// FromMark is the index of the first mark included.
	FromMark int
	Marks    []trajectory.GeoMark
	// Power columns for the included marks, channel-major.
	Power [][]float64
}

// MakeDelta extracts the update covering marks [from, a.Len()).
func MakeDelta(a *trajectory.Aware, from int) (Delta, error) {
	if from < 0 || from >= a.Len() {
		return Delta{}, fmt.Errorf("v2v: delta from %d out of range 0..%d", from, a.Len()-1)
	}
	n := a.Len() - from
	d := Delta{FromMark: from}
	d.Marks = append(d.Marks, a.Geo.Marks[from:]...)
	d.Power = make([][]float64, a.Width())
	for ch := range d.Power {
		d.Power[ch] = a.RowCopy(ch, from, from+n)
	}
	return d, nil
}

// WireSize returns the delta's encoded size in bytes: a small header plus
// 6 bytes per mark and one byte per power cell (same quantization as the
// full wire format).
func (d Delta) WireSize() int {
	return 16 + len(d.Marks)*6 + len(d.Power)*len(d.Marks)
}

// Apply extends the peer's copy of the trajectory with the delta. The
// delta must start exactly where the copy ends (or overlap it).
func (d Delta) Apply(a *trajectory.Aware) error {
	if d.FromMark > a.Len() {
		return fmt.Errorf("v2v: delta gap: have %d marks, delta starts at %d", a.Len(), d.FromMark)
	}
	if len(d.Power) != a.Width() {
		return errors.New("v2v: delta channel count mismatch")
	}
	skip := a.Len() - d.FromMark // overlapping marks already present
	if skip >= len(d.Marks) {
		return nil // nothing new
	}
	rows := make([][]float64, len(d.Power))
	for ch := range d.Power {
		rows[ch] = d.Power[ch][skip:]
	}
	a.AppendColumns(d.Marks[skip:], rows)
	return nil
}

// SendDelta moves a delta across the link.
func SendDelta(l *Link, d Delta) Cost {
	return l.Transfer(d.WireSize())
}

// MaxDeltaMarks returns how many marks of a channels-wide delta fit one
// WSM payload under the quantized wire format (22 B header, 6 B geometry
// and one power byte per channel per mark).
func MaxDeltaMarks(channels int) int {
	n := (WSMPayload - 22) / (6 + channels)
	if n < 1 {
		n = 1
	}
	return n
}

// ChunkDelta splits a delta into consecutive deltas that each marshal
// within the WSM payload bound, preserving coverage and order. Sub-deltas
// share backing storage with d.
func ChunkDelta(d Delta) []Delta {
	per := MaxDeltaMarks(len(d.Power))
	if len(d.Marks) <= per {
		return []Delta{d}
	}
	out := make([]Delta, 0, (len(d.Marks)+per-1)/per)
	for at := 0; at < len(d.Marks); at += per {
		end := at + per
		if end > len(d.Marks) {
			end = len(d.Marks)
		}
		sub := Delta{FromMark: d.FromMark + at, Marks: d.Marks[at:end]}
		sub.Power = make([][]float64, len(d.Power))
		for ch := range d.Power {
			sub.Power[ch] = d.Power[ch][at:end]
		}
		out = append(out, sub)
	}
	return out
}

// BeaconSize is the size of the periodic presence beacon (vehicle id,
// position hint, context freshness) used for neighbour discovery.
const BeaconSize = 64

// Beacon encodes a minimal neighbour-discovery announcement.
func Beacon(vehicleID uint32, contextLen int) []byte {
	b := make([]byte, BeaconSize)
	binary.LittleEndian.PutUint32(b[0:], vehicleID)
	binary.LittleEndian.PutUint32(b[4:], uint32(contextLen))
	return b
}

// ParseBeacon decodes a beacon.
func ParseBeacon(b []byte) (vehicleID uint32, contextLen int, err error) {
	if len(b) != BeaconSize {
		return 0, 0, fmt.Errorf("v2v: beacon size %d, want %d", len(b), BeaconSize)
	}
	return binary.LittleEndian.Uint32(b[0:]), int(binary.LittleEndian.Uint32(b[4:])), nil
}

// Delta wire format (little endian):
//
//	magic    uint32 'RUPD'
//	fromMark uint32
//	marks    uint32
//	channels uint16
//	tBase    float64
//	marks    × { theta uint16, dt float32 }
//	power    channels × marks power cells (trajectory.CellByte)
const deltaMagic = 0x52555044

// MarshalBinary encodes the delta for transmission. Deltas that would not
// fit one WSM payload are refused — split them with ChunkDelta first.
func (d Delta) MarshalBinary() ([]byte, error) {
	if len(d.Power) == 0 || len(d.Power) > 0xFFFF {
		return nil, fmt.Errorf("v2v: %d delta channels not encodable", len(d.Power))
	}
	if size := 22 + len(d.Marks)*6 + len(d.Power)*len(d.Marks); size > WSMPayload {
		return nil, fmt.Errorf("v2v: delta encodes to %d bytes, over the %d WSM bound", size, WSMPayload)
	}
	m := len(d.Marks)
	var tBase float64
	if m > 0 {
		tBase = d.Marks[0].T
	}
	buf := make([]byte, 0, 22+m*6+len(d.Power)*m)
	buf = binary.LittleEndian.AppendUint32(buf, deltaMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.FromMark))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(d.Power)))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(tBase))
	for _, mk := range d.Marks {
		theta := uint16(math.Round(mk.Theta / (2 * math.Pi) * 65535))
		buf = binary.LittleEndian.AppendUint16(buf, theta)
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(mk.T-tBase)))
	}
	for ch := range d.Power {
		if len(d.Power[ch]) != m {
			return nil, fmt.Errorf("v2v: ragged delta row %d", ch)
		}
		for i := 0; i < m; i++ {
			buf = append(buf, trajectory.CellByte(d.Power[ch][i]))
		}
	}
	return buf, nil
}

// UnmarshalBinary decodes a delta. Packets over the 1400 B WSM payload
// bound are rejected outright: a conforming sender cannot have produced
// one, and the implied mark/channel counts would otherwise drive huge
// attacker-controlled allocations.
func (d *Delta) UnmarshalBinary(data []byte) error {
	const header = 4 + 4 + 4 + 2 + 8
	if len(data) > WSMPayload {
		return fmt.Errorf("v2v: delta packet %d bytes exceeds the %d WSM bound", len(data), WSMPayload)
	}
	if len(data) < header {
		return errors.New("v2v: short delta")
	}
	if binary.LittleEndian.Uint32(data[0:]) != deltaMagic {
		return errors.New("v2v: bad delta magic")
	}
	from := int(binary.LittleEndian.Uint32(data[4:]))
	m := int(binary.LittleEndian.Uint32(data[8:]))
	n := int(binary.LittleEndian.Uint16(data[12:]))
	if n == 0 {
		return errors.New("v2v: delta with zero channels")
	}
	if len(data) != header+m*6+n*m {
		return fmt.Errorf("v2v: delta size %d, want %d", len(data), header+m*6+n*m)
	}
	tBase := math.Float64frombits(binary.LittleEndian.Uint64(data[14:]))
	off := header
	marks := make([]trajectory.GeoMark, m)
	for i := 0; i < m; i++ {
		theta := binary.LittleEndian.Uint16(data[off:])
		dt := math.Float32frombits(binary.LittleEndian.Uint32(data[off+2:]))
		marks[i] = trajectory.GeoMark{
			Theta: float64(theta) / 65535 * 2 * math.Pi,
			T:     tBase + float64(dt),
		}
		off += 6
	}
	power := make([][]float64, n)
	for ch := 0; ch < n; ch++ {
		row := make([]float64, m)
		for i := 0; i < m; i++ {
			row[i] = trajectory.CellDBm(data[off])
			off++
		}
		power[ch] = row
	}
	d.FromMark = from
	d.Marks = marks
	d.Power = power
	return nil
}
