// Package v2v is the DSRC (IEEE 802.11p / WAVE) trajectory exchange RUPS
// runs between vehicles (paper §V-B): WAVE Short Messages with a 1400-byte
// payload and an average 4 ms round trip. A Session streams one vehicle's
// trajectory to a peer over a pair of link.Channels as CRC-framed,
// fragmented chunks of the trajectory codec (trajectory.AppendChunk),
// reliably under loss; a Receiver is the receive half, shared with
// transports beyond the simulated link. The paper's cost figures — a
// one-kilometre context, its WSMs and its exchange time — are measured on
// that path (see internal/eval's latency experiments).
package v2v

import (
	"errors"
	"fmt"

	"rups/internal/trajectory"
)

// WSMPayload is the usable payload of one WAVE Short Message, bytes.
const WSMPayload = 1400

// PacketRTT is the average per-packet round-trip time, seconds.
const PacketRTT = 0.004

// Delta is an incremental tracking update (§V-B): after a SYN point has
// been identified, a vehicle only streams its newest metres instead of the
// whole journey context.
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
