package trajectory

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Wire format. The paper's arithmetic (§V-B: a one-kilometre journey
// context is about 182 KB) implies roughly one byte per (channel, metre)
// cell, so the format carries the stored power cells (CellByte) as they
// are, with MissingCell marking a missing cell. Headings are quantized
// to 16 bits (≈0.005° resolution) and timestamps are stored as float32
// offsets from a float64 base.
//
// Layout (little endian):
//
//	magic   uint32  'RUPS'
//	version uint16
//	m       uint32  metres (marks)
//	n       uint16  channels
//	tBase   float64
//	marks   m × { theta uint16, dt float32 }
//	power   n × m bytes
const (
	wireMagic   = 0x52555053 // "RUPS"
	wireVersion = 1
)

// headerSize is the fixed encoding overhead in bytes.
const headerSize = 4 + 2 + 4 + 2 + 8

// EncodedSize returns the wire size in bytes of a trajectory with m metres
// and n channels — the quantity the V2V layer fragments into WSM packets.
func EncodedSize(m, n int) int {
	return headerSize + m*6 + n*m
}

// MarshalBinary encodes the trajectory in the wire format.
func (a *Aware) MarshalBinary() ([]byte, error) {
	m := a.Len()
	n := a.Width()
	if n == 0 || n > 0xFFFF {
		return nil, fmt.Errorf("trajectory: %d power rows not encodable", n)
	}
	buf := make([]byte, 0, EncodedSize(m, n))
	var tBase float64
	if m > 0 {
		tBase = a.Geo.Marks[0].T
	}
	buf = binary.LittleEndian.AppendUint32(buf, wireMagic)
	buf = binary.LittleEndian.AppendUint16(buf, wireVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(n))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(tBase))
	for _, mk := range a.Geo.Marks {
		theta := uint16(math.Round(mk.Theta / (2 * math.Pi) * 65535))
		buf = binary.LittleEndian.AppendUint16(buf, theta)
		buf = binary.LittleEndian.AppendUint32(buf,
			math.Float32bits(float32(mk.T-tBase)))
	}
	for ch := 0; ch < n; ch++ {
		a.pw.rowSegs(ch, 0, m, func(seg []uint8, _ int) {
			buf = append(buf, seg...)
		})
	}
	return buf, nil
}

// ErrBadWire reports a malformed or truncated wire encoding.
var ErrBadWire = errors.New("trajectory: malformed wire encoding")

// UnmarshalBinary decodes a trajectory from the wire format into a. Like
// every other write path it panics when a is a view (Tail, PrefixUntil,
// Snapshot).
func (a *Aware) UnmarshalBinary(data []byte) error {
	a.pw.mutable()
	if len(data) < headerSize {
		return fmt.Errorf("%w: short header (%d bytes)", ErrBadWire, len(data))
	}
	if binary.LittleEndian.Uint32(data[0:]) != wireMagic {
		return fmt.Errorf("%w: bad magic", ErrBadWire)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != wireVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadWire, v)
	}
	m := int(binary.LittleEndian.Uint32(data[6:]))
	n := int(binary.LittleEndian.Uint16(data[10:]))
	if n == 0 {
		return fmt.Errorf("%w: zero channels", ErrBadWire)
	}
	if len(data) != EncodedSize(m, n) {
		return fmt.Errorf("%w: size %d, want %d", ErrBadWire, len(data), EncodedSize(m, n))
	}
	tBase := math.Float64frombits(binary.LittleEndian.Uint64(data[12:]))

	marks := make([]GeoMark, m)
	off := headerSize
	for i := 0; i < m; i++ {
		theta := binary.LittleEndian.Uint16(data[off:])
		dt := math.Float32frombits(binary.LittleEndian.Uint32(data[off+2:]))
		marks[i] = GeoMark{
			Theta: float64(theta) / 65535 * 2 * math.Pi,
			T:     tBase + float64(dt),
		}
		off += 6
	}
	pw := newPowStore(n, m)
	for ch := 0; ch < n; ch++ {
		pw.setCells(ch, 0, data[off:off+m])
		off += m
	}
	a.Geo = Geo{Marks: marks}
	a.pw = pw
	return nil
}
