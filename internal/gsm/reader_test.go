package gsm_test

import (
	"math"
	"sync"
	"testing"

	"rups/internal/city"
	"rups/internal/geo"
	"rups/internal/gsm"
)

// read is one field query.
type read struct {
	pos geo.Vec2
	ch  int
	t   float64
}

// checkReader reads the queries in order through one path reader and fails
// unless every value equals Field.Sample's bit for bit.
func checkReader(t *testing.T, f *gsm.Field, reads []read) {
	t.Helper()
	r := f.Reader()
	for k, q := range reads {
		got, want := r(q.pos, q.ch, q.t), f.Sample(q.pos, q.ch, q.t)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("read %d (%+v): reader %v != Sample %v", k, q, got, want)
		}
	}
}

// scanPath is a scanner-like query sequence: one channel per 15 ms dwell,
// cycling through all 194, while the receiver moves along pts at speed
// m/s, starting at t0. Every fifth query is repeated.
func scanPath(pts []geo.Vec2, speed, t0 float64) []read {
	var reads []read
	t, k := t0, 0
	for i := 1; i < len(pts); i++ {
		seg := pts[i].Sub(pts[i-1])
		n := int(seg.Norm() / (speed * 0.015))
		for s := 0; s < n; s++ {
			q := read{pos: pts[i-1].Add(seg.Scale(float64(s) / float64(n))), ch: k % gsm.NumChannels, t: t}
			reads = append(reads, q)
			if k%5 == 0 {
				reads = append(reads, q)
			}
			t += 0.015
			k++
		}
	}
	return reads
}

// TestReaderMatchesSampleAcrossCity drives a path across a city's zoning
// (suburban → urban → downtown and along an elevated deck), so the lattice
// scales change under the reader's memos mid-path.
func TestReaderMatchesSampleAcrossCity(t *testing.T) {
	c := city.Generate(city.DefaultConfig(31))
	f := gsm.NewField(32, gsm.GenerateTowers(32, c.Bounds(), c), c)
	deck := c.RoadsOfClass(city.UnderElevated)[0].Line.Points()
	pts := append([]geo.Vec2{{X: -2900, Y: 150}, {X: 2900, Y: -150}}, deck...)
	reads := scanPath(pts, 30, 3600)

	envs := map[gsm.EnvClass]bool{}
	chans := map[int]bool{}
	for _, q := range reads {
		envs[c.EnvAt(q.pos)] = true
		chans[q.ch] = true
	}
	if len(envs) != 4 || len(chans) != gsm.NumChannels {
		t.Fatalf("path covers %d environments and %d channels, want 4 and %d", len(envs), len(chans), gsm.NumChannels)
	}
	bcch, tch := false, false
	for _, tw := range f.Towers() {
		bcch = bcch || chans[tw.Channels[0]]
		tch = tch || chans[tw.Channels[1]]
	}
	if !bcch || !tch {
		t.Fatal("path misses BCCH or TCH carriers")
	}
	checkReader(t, f, reads)
}

// TestReaderMatchesSampleOverDayBoundary crosses t = 86400, where every
// link's day offset changes, both forwards and back.
func TestReaderMatchesSampleOverDayBoundary(t *testing.T) {
	f := gsm.NewField(5, gsm.GenerateTowers(5, gsm.Bounds{MaxX: 3000, MaxY: 3000}, gsm.ConstZone(gsm.Urban)), gsm.ConstZone(gsm.Urban))
	pts := []geo.Vec2{{X: 1000, Y: 1400}, {X: 1400, Y: 1500}}
	reads := scanPath(pts, 10, 86400-20)
	// And back across midnight: the same points with the clock reversed.
	for k := len(reads) - 1; k >= 0; k -= 3 {
		reads = append(reads, read{pos: reads[k].pos, ch: reads[k].ch, t: 2*86400 - reads[k].t})
	}
	checkReader(t, f, reads)
}

// TestReaderMatchesSampleVector reads every channel at each point of a slow
// walk, the access pattern of SampleVector and the §III experiments.
func TestReaderMatchesSampleVector(t *testing.T) {
	f := gsm.NewField(9, gsm.GenerateTowers(9, gsm.Bounds{MaxX: 3000, MaxY: 3000}, gsm.ConstZone(gsm.Downtown)), gsm.ConstZone(gsm.Downtown))
	var reads []read
	for i := 0; i < 12; i++ {
		pos := geo.Vec2{X: 1500 + 0.4*float64(i), Y: 1500 - 0.3*float64(i)}
		for ch := 0; ch < gsm.NumChannels; ch++ {
			reads = append(reads, read{pos: pos, ch: ch, t: 100 + float64(i)})
		}
		v := f.SampleVector(pos, 100+float64(i))
		for ch, x := range v {
			if want := f.Sample(pos, ch, 100+float64(i)); math.Float64bits(x) != math.Float64bits(want) {
				t.Fatalf("SampleVector ch %d at %v: %v != %v", ch, pos, x, want)
			}
		}
	}
	checkReader(t, f, reads)
}

// TestReaderMatchesSampleWithTruck adds a moving obstruction to the field:
// the perturbation applies after the memoized terms and must not disturb
// them.
func TestReaderMatchesSampleWithTruck(t *testing.T) {
	f := gsm.NewField(6, gsm.GenerateTowers(6, gsm.Bounds{MaxX: 3000, MaxY: 3000}, gsm.ConstZone(gsm.Urban)), gsm.ConstZone(gsm.Urban))
	f.AddPerturber(gsm.TrackPerturbation{
		PosAt: func(t float64) (geo.Vec2, bool) {
			return geo.Vec2{X: 1000 + 10*(t-50), Y: 1503}, t >= 50 && t <= 90
		},
		RadiusM: 12, Loss: 9, ChannelFrac: 0.6, Seed: 4,
	})
	reads := scanPath([]geo.Vec2{{X: 1000, Y: 1500}, {X: 1400, Y: 1500}}, 10, 50)
	checkReader(t, f, reads)
}

// TestReadersConcurrent gives each goroutine its own reader of one shared
// field; run under -race it checks the field is only read.
func TestReadersConcurrent(t *testing.T) {
	f := gsm.NewField(7, gsm.GenerateTowers(7, gsm.Bounds{MaxX: 3000, MaxY: 3000}, gsm.ConstZone(gsm.Urban)), gsm.ConstZone(gsm.Urban))
	reads := scanPath([]geo.Vec2{{X: 900, Y: 1200}, {X: 1100, Y: 1300}}, 12, 10)
	got := make([][]float64, 2)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := f.Reader()
			for _, q := range reads {
				got[g] = append(got[g], r(q.pos, q.ch, q.t))
			}
		}()
	}
	wg.Wait()
	for k, q := range reads {
		want := math.Float64bits(f.Sample(q.pos, q.ch, q.t))
		if math.Float64bits(got[0][k]) != want || math.Float64bits(got[1][k]) != want {
			t.Fatalf("read %d (%+v): readers %v, %v != Sample", k, q, got[0][k], got[1][k])
		}
	}
}
