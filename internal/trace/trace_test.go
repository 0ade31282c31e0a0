package trace

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"rups/internal/city"
	"rups/internal/core"
	"rups/internal/sim"
)

var sharedRec *Record

func getRecord(t *testing.T) *Record {
	t.Helper()
	if sharedRec == nil {
		sc := sim.DefaultScenario(91, city.FourLaneUrban)
		sc.DistanceM = 700
		sharedRec = FromRun(sim.Execute(sc), "urban-4lane")
	}
	return sharedRec
}

func TestRecordQueryMatchesTruth(t *testing.T) {
	rec := getRecord(t)
	p := core.DefaultParams()
	ok := 0
	for i := 0; i < 12; i++ {
		tm := rec.Follower.T0 + 45 + float64(i)*2.5
		q := rec.Query(tm, p)
		if q.TruthGap <= 0 {
			t.Errorf("truth gap %v at t=%v", q.TruthGap, tm)
		}
		if q.OK {
			ok++
			if q.RDE > 25 {
				t.Errorf("replayed RDE %v implausible", q.RDE)
			}
		}
	}
	if ok < 6 {
		t.Errorf("only %d/12 replayed queries resolved", ok)
	}
}

// TestRoundTripPreservesQueries: a capture is lossless — the trajectories
// come back byte-identical (float64 geometry, the same cells) and every
// replayed query equals the original record's.
func TestRoundTripPreservesQueries(t *testing.T) {
	rec := getRecord(t)
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var back Record
	if _, err := back.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if back.Label != rec.Label || back.Seed != rec.Seed {
		t.Error("metadata lost")
	}
	for _, pair := range [][2]*VehicleRecord{{&rec.Leader, &back.Leader}, {&rec.Follower, &back.Follower}} {
		a, b := pair[0].Aware, pair[1].Aware
		if !reflect.DeepEqual(a.Geo, b.Geo) || a.Width() != b.Width() {
			t.Fatalf("trajectory geometry changed: %d×%d marks vs %d×%d", a.Len(), a.Width(), b.Len(), b.Width())
		}
		ra, rb := make([]uint8, a.Len()), make([]uint8, b.Len())
		for ch := 0; ch < a.Width(); ch++ {
			a.CopyCellsInto(ch, 0, ra)
			b.CopyCellsInto(ch, 0, rb)
			if !bytes.Equal(ra, rb) {
				t.Fatalf("channel %d cells changed in the round trip", ch)
			}
		}
	}
	p := core.DefaultParams()
	for i := 0; i < 6; i++ {
		tm := rec.Follower.T0 + 50 + float64(i)*4
		if q1, q2 := rec.Query(tm, p), back.Query(tm, p); !reflect.DeepEqual(q1, q2) {
			t.Fatalf("query %d changed in the round trip:\n%+v\nvs\n%+v", i, q1, q2)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	var rec Record
	if _, err := rec.ReadFrom(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Error("garbage accepted")
	}
	var buf bytes.Buffer
	if _, err := getRecord(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := rec.ReadFrom(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestTruthInterpolation(t *testing.T) {
	rec := getRecord(t)
	v := &rec.Follower
	// Interpolated S is monotone and spans the drive.
	prev := -math.MaxFloat64
	for i := 0; i < 200; i++ {
		tm := v.T0 + float64(i)*0.37
		s, _ := v.truthAt(tm)
		if s < prev-1e-9 {
			t.Fatalf("interpolated S not monotone at %v", tm)
		}
		prev = s
	}
	// Clamped outside the span.
	sLo, _ := v.truthAt(v.T0 - 100)
	if sLo != v.S[0] {
		t.Error("not clamped at start")
	}
	sHi, _ := v.truthAt(v.T0 + 1e6)
	if sHi != v.S[len(v.S)-1] {
		t.Error("not clamped at end")
	}
}
