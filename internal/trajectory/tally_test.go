package trajectory

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"rups/internal/stats"
)

// randomColumn draws one power column: a cell missing one time in nine,
// channel 1 never scanned, channel 0 always.
func randomColumn(rng *rand.Rand, power []float64) []float64 {
	for ch := range power {
		switch {
		case ch == 1 || (ch > 0 && rng.Intn(9) == 0):
			power[ch] = stats.Missing
		default:
			power[ch] = -110 + 60*rng.Float64()
		}
	}
	return power
}

// checkTallies compares tr's channel ranking and missing-cell verdicts
// with those of its Clone, which holds no tallies and so reads every cell:
// the full ranking (means and counts, bit for bit), the audible trim, and
// HasMissing for every channel and for all of them, over tr and over views
// starting and ending mid-chunk. It returns the first difference.
func checkTallies(label string, tr *Aware) error {
	n, width := tr.Len(), tr.Width()
	all := make([]int, width)
	for ch := range all {
		all[ch] = ch
	}
	views := []*Aware{tr, tr.Tail(n - 5), tr.Tail(2*ChunkMarks + 3), tr.PrefixUntil(tr.Geo.Marks[n-9].T),
		tr.Tail(n - 7).PrefixUntil(tr.Geo.Marks[n-ChunkMarks-2].T)}
	for vi, v := range views {
		c := v.Clone()
		if got, want := v.rankChannels(width), c.rankChannels(width); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s view %d (len %d): ranking %+v, clone's %+v", label, vi, v.Len(), got, want)
		}
		if got, want := v.TopAudibleChannels(width, -90, 2), c.TopAudibleChannels(width, -90, 2); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s view %d: audible channels %v, clone's %v", label, vi, got, want)
		}
		for _, r := range [][2]int{{0, v.Len()}, {3, v.Len()}, {0, v.Len() - 2}, {ChunkMarks / 2, v.Len()}} {
			for ch := range all {
				if got, want := v.HasMissing(all[ch:ch+1], r[0], r[1]), c.HasMissing(all[ch:ch+1], r[0], r[1]); got != want {
					return fmt.Errorf("%s view %d: channel %d missing over %v: %v, clone's %v", label, vi, ch, r, got, want)
				}
			}
			// Channel 0 is always scanned; channel 1 almost never.
			if v.HasMissing(all[:1], r[0], r[1]) || !v.HasMissing(all, r[0], r[1]) {
				return fmt.Errorf("%s view %d: wrong missing verdict over %v", label, vi, r)
			}
		}
	}
	return nil
}

// TestSealedTallyRankingMatchesClone pins the sealed-chunk tallies: the
// snapshot that first seals a chunk whole tallies it, and every ranking
// and missing-cell verdict read through tallies equals the cell-by-cell
// answer of a Clone — for snapshots, for the live trajectory, for views
// starting or ending mid-chunk, after SetPower and Interpolate rewrote
// sealed chunks (their copy-on-write clones start untallied), and, in a
// second phase, for snapshots ranked on reader goroutines while the owner
// keeps appending, rewriting and snapshotting.
func TestSealedTallyRankingMatchesClone(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const width, n = 12, 5*ChunkMarks + 40
	g := Geo{Marks: make([]GeoMark, n)}
	for i := range g.Marks {
		g.Marks[i] = GeoMark{T: float64(i)}
	}
	a := NewAwareWidth(g, width)
	power := make([]float64, width)
	for i := 0; i < n; i++ {
		for ch, v := range randomColumn(rng, power) {
			a.SetPower(ch, i, v)
		}
	}
	if unsafe.Sizeof(cellTally{}) != TallyBytes {
		t.Fatalf("a tally takes %d B, TallyBytes says %d", unsafe.Sizeof(cellTally{}), TallyBytes)
	}
	s := a.Snapshot()
	for ci := 0; ci < 6; ci++ {
		if tallied := a.pw.chunks[ci].tally != nil; tallied != (ci < 5) {
			t.Fatalf("chunk %d tallied %v after the first snapshot", ci, tallied)
		}
	}
	if err := checkTallies("snapshot", s); err != nil {
		t.Fatal(err)
	}
	if err := checkTallies("live", a); err != nil {
		t.Fatal(err)
	}

	a.SetPower(3, 200, -60)                // a present cell changes
	a.SetPower(4, 300, stats.Missing)      // a present cell goes missing
	a.SetPower(2, ChunkMarks, -70)         // a chunk's first column
	a.SetPower(5, 4*ChunkMarks+2, -100.25) // stored as a whole dB
	if err := checkTallies("live after SetPower", a); err != nil {
		t.Fatal(err)
	}
	if err := checkTallies("first snapshot after SetPower", s); err != nil {
		t.Fatal(err)
	}
	s2 := a.Snapshot()
	if err := checkTallies("snapshot after SetPower", s2); err != nil {
		t.Fatal(err)
	}

	a.Interpolate()
	if err := checkTallies("live after Interpolate", a); err != nil {
		t.Fatal(err)
	}
	s3 := a.Snapshot()
	if err := checkTallies("snapshot after Interpolate", s3); err != nil {
		t.Fatal(err)
	}
	if err := checkTallies("first snapshot after Interpolate", s); err != nil {
		t.Fatal(err)
	}

	// Concurrent phase: one owner goroutine (this one) appends, rewrites
	// sealed history and snapshots; readers rank the snapshots they are
	// handed, against clones, while the owner carries on.
	snaps := make(chan *Aware, 4)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sn := range snaps {
				if err := checkTallies("concurrent snapshot", sn); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for i := 0; i < 3*ChunkMarks; i++ {
		a.Append(GeoMark{T: float64(n + i)}, randomColumn(rng, power))
		if i%7 == 0 {
			a.SetPower(rng.Intn(width), rng.Intn(a.Len()), -80)
		}
		if i%41 == 0 {
			snaps <- a.Snapshot()
		}
	}
	close(snaps)
	wg.Wait()
	if err := checkTallies("live after the concurrent phase", a); err != nil {
		t.Fatal(err)
	}
}
