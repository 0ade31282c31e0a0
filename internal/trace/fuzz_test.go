package trace

import (
	"bytes"
	"testing"

	"rups/internal/geo"
	"rups/internal/stats"
	"rups/internal/trajectory"
)

// FuzzReadFrom hammers the trace decoder with arbitrary bytes: it must
// never panic and must reject everything malformed with an error.
func FuzzReadFrom(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("RUPT"))
	f.Add(bytes.Repeat([]byte{0x52}, 64))
	f.Add(smallRecord(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		var rec Record
		if _, err := rec.ReadFrom(bytes.NewReader(data)); err != nil {
			return
		}
		// Accepted: both vehicles must be structurally consistent.
		for _, v := range []*VehicleRecord{&rec.Leader, &rec.Follower} {
			if v.Aware == nil || v.Aware.Width() == 0 {
				t.Fatal("accepted record without a trajectory")
			}
			if len(v.S) != len(v.Pos) || len(v.S) != len(v.GPSFix) || len(v.S) != len(v.GPSOK) {
				t.Fatal("accepted record with ragged series")
			}
		}
		// And it must write back out.
		if _, err := rec.WriteTo(&bytes.Buffer{}); err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
	})
}

// smallRecord encodes a valid record small enough for the fuzzer to mutate
// usefully: three marks over two channels and two truth samples per
// vehicle.
func smallRecord(f *testing.F) []byte {
	vehicle := func(theta float64) VehicleRecord {
		a := trajectory.NewAwareWidth(trajectory.Geo{}, 2)
		for i := 0; i < 3; i++ {
			a.Append(trajectory.GeoMark{Theta: theta, T: float64(i)}, []float64{-90 + float64(i), stats.Missing})
		}
		return VehicleRecord{
			Aware:       a,
			MarkTruePos: []geo.Vec2{{X: 1}, {X: 2}, {X: 3}},
			S:           []float64{0, 1},
			Pos:         []geo.Vec2{{}, {X: 1}},
			GPSFix:      []geo.Vec2{{Y: 2}, {X: 1, Y: 2}},
			GPSOK:       []bool{true, false},
		}
	}
	rec := Record{Seed: 1, Label: "small", Leader: vehicle(0.5), Follower: vehicle(1.5)}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	var back Record
	if _, err := back.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		f.Fatalf("the small record does not decode: %v", err)
	}
	return buf.Bytes()
}
