// Package trace is the drive-trace archive format: everything a two-vehicle
// run produced that the evaluation consumes — both GSM-aware trajectories,
// per-mark ground-truth positions, the odometric truth series, and the GPS
// fixes — in one self-contained binary blob. Recording a run once and
// replaying queries against the record is what makes the evaluation
// trace-driven in the paper's sense (§VI-A): the expensive simulation (the
// "field experiment") is separated from the analysis.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"rups/internal/core"
	"rups/internal/geo"
	"rups/internal/sim"
	"rups/internal/trajectory"
)

const (
	magic   = 0x52555054 // "RUPT"
	version = 2
)

// SampleHz is the rate at which truth and GPS series are stored.
const SampleHz = 10.0

// VehicleRecord is one vehicle's archived data.
type VehicleRecord struct {
	Aware       *trajectory.Aware
	MarkTruePos []geo.Vec2
	// Uniform truth series at SampleHz starting at T0.
	T0     float64
	S      []float64 // odometric position
	Pos    []geo.Vec2
	GPSFix []geo.Vec2
	GPSOK  []bool
}

// truthAt linearly interpolates the stored odometric truth.
func (v *VehicleRecord) truthAt(t float64) (s float64, pos geo.Vec2) {
	if len(v.S) == 0 {
		return 0, geo.Vec2{}
	}
	f := (t - v.T0) * SampleHz
	i := int(f)
	if i < 0 {
		return v.S[0], v.Pos[0]
	}
	if i >= len(v.S)-1 {
		return v.S[len(v.S)-1], v.Pos[len(v.Pos)-1]
	}
	frac := f - float64(i)
	return v.S[i] + (v.S[i+1]-v.S[i])*frac, v.Pos[i].Lerp(v.Pos[i+1], frac)
}

// gpsAt returns the stored GPS fix nearest to (not after) time t.
func (v *VehicleRecord) gpsAt(t float64) (geo.Vec2, bool) {
	if len(v.GPSFix) == 0 {
		return geo.Vec2{}, false
	}
	i := int((t - v.T0) * SampleHz)
	if i < 0 {
		i = 0
	}
	if i >= len(v.GPSFix) {
		i = len(v.GPSFix) - 1
	}
	return v.GPSFix[i], v.GPSOK[i]
}

// Record is an archived two-vehicle run.
type Record struct {
	Seed     uint64
	Label    string
	Leader   VehicleRecord
	Follower VehicleRecord
}

// FromRun samples a simulated run into a record. Query-facing GPS fixes are
// materialized on the uniform grid here, so replays never need the live
// receivers.
func FromRun(r *sim.Run, label string) *Record {
	rec := &Record{Seed: r.Scenario.Seed, Label: label}
	rec.Leader = recordVehicle(r, r.Leader, true)
	rec.Follower = recordVehicle(r, r.Follower, false)
	return rec
}

func recordVehicle(r *sim.Run, v *sim.VehicleRun, leader bool) VehicleRecord {
	rec := VehicleRecord{
		Aware:       v.Aware,
		MarkTruePos: v.MarkTruePos,
		T0:          v.Truth.States[0].T,
	}
	dur := v.Truth.Duration()
	n := int(dur*SampleHz) + 1
	for i := 0; i < n; i++ {
		t := rec.T0 + float64(i)/SampleHz
		st := v.Truth.At(t)
		rec.S = append(rec.S, st.S)
		rec.Pos = append(rec.Pos, st.Pos)
		fix, ok := r.GPSFixFor(leader, st.Pos, t)
		rec.GPSFix = append(rec.GPSFix, fix)
		rec.GPSOK = append(rec.GPSOK, ok)
	}
	return rec
}

// Query replays a relative-distance query at time t against the record.
// The archive keeps no rangefinder, so the laser fields stay zero.
func (rec *Record) Query(t float64, p core.Params) sim.QueryResult {
	res := sim.QueryResult{T: t}
	sL, posL := rec.Leader.truthAt(t)
	sF, posF := rec.Follower.truthAt(t)
	res.TruthGap = sL - sF

	pf := rec.Follower.Aware.PrefixUntil(t)
	pl := rec.Leader.Aware.PrefixUntil(t)
	if est, ok := core.Resolve(pf, pl, p); ok {
		res.OK = true
		res.Est = est
		res.RDE = math.Abs(est.Distance - res.TruthGap)
		res.SYNErrM = sim.SYNError(est, rec.Follower.MarkTruePos, rec.Leader.MarkTruePos)
	}

	fixF, freshF := rec.Follower.gpsAt(t)
	fixL, freshL := rec.Leader.gpsAt(t)
	res.GPSFresh = freshF && freshL
	res.GPSEst = fixF.Dist(fixL)
	res.GPSRDE = math.Abs(res.GPSEst - posF.Dist(posL))
	return res
}

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed stream")

// WriteTo serializes the record.
func (rec *Record) WriteTo(w io.Writer) (int64, error) {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, magic)
	buf = binary.LittleEndian.AppendUint16(buf, version)
	buf = binary.LittleEndian.AppendUint64(buf, rec.Seed)
	lbl := []byte(rec.Label)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(lbl)))
	buf = append(buf, lbl...)
	for _, v := range []*VehicleRecord{&rec.Leader, &rec.Follower} {
		vb, err := encodeVehicle(v)
		if err != nil {
			return 0, err
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vb)))
		buf = append(buf, vb...)
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// encodeVehicle writes one vehicle body: the trajectory as its width and
// mark count followed by consecutive chunks of the trajectory codec (each
// length-prefixed, at most trajectory.MaxChunkMarks marks), then the
// per-mark true positions and the truth series, all float64, so a capture
// replays exactly what the run answered.
func encodeVehicle(v *VehicleRecord) ([]byte, error) {
	a := v.Aware
	if a.Width() == 0 || a.Width() > 0xFFFF {
		return nil, fmt.Errorf("trace: %d power rows not encodable", a.Width())
	}
	var b []byte
	b = binary.LittleEndian.AppendUint16(b, uint16(a.Width()))
	b = binary.LittleEndian.AppendUint32(b, uint32(a.Len()))
	cells := make([]uint8, trajectory.MaxChunkMarks*a.Width())
	for at := 0; at < a.Len(); at += trajectory.MaxChunkMarks {
		n := min(trajectory.MaxChunkMarks, a.Len()-at)
		lenAt := len(b)
		b = binary.LittleEndian.AppendUint32(b, 0)
		b = trajectory.AppendChunk(b, a.CopyChunk(at, n, cells))
		binary.LittleEndian.PutUint32(b[lenAt:], uint32(len(b)-lenAt-4))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v.MarkTruePos)))
	for _, p := range v.MarkTruePos {
		b = appendVec(b, p)
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.T0))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v.S)))
	for i := range v.S {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.S[i]))
		b = appendVec(b, v.Pos[i])
		b = appendVec(b, v.GPSFix[i])
		if v.GPSOK[i] {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b, nil
}

func appendVec(b []byte, p geo.Vec2) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.X))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Y))
}

// ReadFrom deserializes a record written by WriteTo.
func (rec *Record) ReadFrom(r io.Reader) (int64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	d := &decoder{data: data}
	if d.u32() != magic {
		return int64(len(data)), fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	if v := d.u16(); v != version {
		return int64(len(data)), fmt.Errorf("%w: version %d", ErrBadTrace, v)
	}
	rec.Seed = d.u64()
	rec.Label = string(d.bytes(int(d.u16())))
	for _, v := range []*VehicleRecord{&rec.Leader, &rec.Follower} {
		vb := d.bytes(int(d.u32()))
		if d.err {
			return int64(len(data)), fmt.Errorf("%w: truncated", ErrBadTrace)
		}
		if err := decodeVehicle(v, vb); err != nil {
			return int64(len(data)), err
		}
	}
	if d.err {
		return int64(len(data)), fmt.Errorf("%w: truncated", ErrBadTrace)
	}
	return int64(len(data)), nil
}

func decodeVehicle(v *VehicleRecord, b []byte) error {
	d := &decoder{data: b}
	width := int(d.u16())
	m := int(d.u32())
	if d.err {
		return fmt.Errorf("%w: vehicle header", ErrBadTrace)
	}
	// Counts come off the wire; bound them by the bytes actually present
	// before allocating, or a corrupt count means gigabytes of allocation
	// and billions of loop iterations on a few hundred KB of input.
	if width == 0 || m > d.remaining()/markWireSize {
		return fmt.Errorf("%w: %d marks × %d channels exceed payload", ErrBadTrace, m, width)
	}
	v.Aware = trajectory.NewAwareWidth(trajectory.Geo{Marks: make([]trajectory.GeoMark, 0, m)}, width)
	for v.Aware.Len() < m {
		c, err := trajectory.ParseChunk(d.bytes(int(d.u32())))
		if d.err || err != nil {
			return fmt.Errorf("%w: trajectory chunk at mark %d: %v", ErrBadTrace, v.Aware.Len(), err)
		}
		if c.From != v.Aware.Len() || c.Chans() != width ||
			len(c.Marks) != min(trajectory.MaxChunkMarks, m-c.From) {
			return fmt.Errorf("%w: chunk of %d marks × %d channels at mark %d, want mark %d of %d × %d",
				ErrBadTrace, len(c.Marks), c.Chans(), c.From, v.Aware.Len(), m, width)
		}
		v.Aware.AppendCellColumns(c.Marks, c.Cells, len(c.Marks))
	}
	nPos := int(d.u32())
	if nPos < 0 || nPos > d.remaining()/vecWireSize {
		return fmt.Errorf("%w: mark count %d exceeds payload", ErrBadTrace, nPos)
	}
	v.MarkTruePos = make([]geo.Vec2, nPos)
	for i := range v.MarkTruePos {
		v.MarkTruePos[i] = d.vec()
	}
	v.T0 = math.Float64frombits(d.u64())
	n := int(d.u32())
	if n < 0 || n > d.remaining()/sampleWireSize {
		return fmt.Errorf("%w: sample count %d exceeds payload", ErrBadTrace, n)
	}
	v.S = make([]float64, n)
	v.Pos = make([]geo.Vec2, n)
	v.GPSFix = make([]geo.Vec2, n)
	v.GPSOK = make([]bool, n)
	for i := 0; i < n; i++ {
		v.S[i] = math.Float64frombits(d.u64())
		v.Pos[i] = d.vec()
		v.GPSFix[i] = d.vec()
		v.GPSOK[i] = d.byte() == 1
	}
	if d.err {
		return fmt.Errorf("%w: vehicle body", ErrBadTrace)
	}
	return nil
}

// Wire sizes of the repeated elements in a vehicle body, used to bound
// decoded counts: a mark is at least its 16 bytes of chunk geometry; a Vec2
// is two float64s; a truth sample is one float64 S, two Vec2s, and one
// GPSOK byte.
const (
	markWireSize   = 16
	vecWireSize    = 16
	sampleWireSize = 8 + 2*vecWireSize + 1
)

// decoder is a bounds-checked little-endian reader.
type decoder struct {
	data []byte
	off  int
	err  bool
}

func (d *decoder) remaining() int { return len(d.data) - d.off }

func (d *decoder) bytes(n int) []byte {
	if n < 0 || d.off+n > len(d.data) {
		d.err = true
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) byte() byte {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) vec() geo.Vec2 {
	return geo.Vec2{
		X: math.Float64frombits(d.u64()),
		Y: math.Float64frombits(d.u64()),
	}
}
