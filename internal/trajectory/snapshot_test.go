package trajectory_test

import (
	"sync"
	"testing"

	"rups/internal/core"
	"rups/internal/stats"
	"rups/internal/trajectory"
)

// grown builds a small live trajectory with deterministic structured power
// rows (dense, varying, so resolution has something to correlate).
func grown(n, width int) *trajectory.Aware {
	g := trajectory.Geo{Marks: make([]trajectory.GeoMark, n)}
	for i := range g.Marks {
		g.Marks[i] = trajectory.GeoMark{T: float64(i)}
	}
	a := trajectory.NewAwareWidth(g, width)
	for ch := 0; ch < width; ch++ {
		for i := 0; i < n; i++ {
			a.SetPower(ch, i, -80+10*float64((i*7+ch*13)%17)/17)
		}
	}
	return a
}

// TestTailIsAView pins down the documented aliasing contract: Tail shares
// backing storage with the live trajectory, so writes through the live
// trajectory are visible through the view.
func TestTailIsAView(t *testing.T) {
	a := grown(50, 4)
	v := a.Tail(10)
	a.SetPower(2, 45, -33)
	if v.At(2, 5) != -33 {
		t.Fatalf("Tail view did not observe the live write: %v", v.At(2, 5))
	}
	a.Geo.Marks[45].Theta = 1.5
	if v.Geo.Marks[5].Theta != 1.5 {
		t.Fatal("Tail view's marks do not alias the live marks")
	}
}

// TestSnapshotIndependence: a snapshot shares no storage — live writes and
// appends after the snapshot never reach it.
func TestSnapshotIndependence(t *testing.T) {
	a := grown(50, 4)
	s := a.Snapshot()
	a.SetPower(1, 10, -100) // a whole dB inside the cell range, stored exactly
	a.Geo.Marks[10].Theta = 2
	a.Append(trajectory.GeoMark{T: 50}, []float64{-70, -70, -70, -70})
	if s.Len() != 50 {
		t.Fatalf("snapshot grew with the live trajectory: len %d", s.Len())
	}
	if s.At(1, 10) == -100 || s.Geo.Marks[10].Theta == 2 {
		t.Fatal("snapshot observed live writes")
	}
}

// TestSnapshotOfSnapshotIsItself: a snapshot is immutable, so snapshotting
// it again returns it unchanged — and every write path refuses it before
// writing anything, which is what makes sharing it safe.
func TestSnapshotOfSnapshotIsItself(t *testing.T) {
	a := grown(50, 4)
	s := a.Snapshot()
	if s.Snapshot() != s {
		t.Fatal("snapshot of a snapshot is a new copy")
	}
	writes := map[string]func(){
		"Append":      func() { s.Append(trajectory.GeoMark{T: 50}, []float64{-70, -70, -70, -70}) },
		"SetPower":    func() { s.SetPower(0, 0, -70) },
		"Interpolate": func() { s.Interpolate() },
		"AppendCellColumns": func() {
			s.AppendCellColumns([]trajectory.GeoMark{{T: 50}}, []uint8{1, 2, 3, 4}, 1)
		},
	}
	for name, write := range writes {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a snapshot did not panic", name)
				}
			}()
			write()
		}()
		if s.Len() != 50 || s.At(0, 0) != a.At(0, 0) {
			t.Fatalf("%s changed the snapshot", name)
		}
	}
}

// TestAppendExtends: Append grows marks and every power row in lockstep.
func TestAppendExtends(t *testing.T) {
	a := grown(10, 3)
	a.Append(trajectory.GeoMark{T: 10, Theta: 0.5}, []float64{-60, stats.Missing, -70})
	if a.Len() != 11 {
		t.Fatalf("len %d after append, want 11", a.Len())
	}
	for ch, want := range []float64{-60, stats.Missing, -70} {
		if got := a.At(ch, 10); got != want && !(stats.IsMissing(got) && stats.IsMissing(want)) {
			t.Fatalf("channel %d appended %v, want %v", ch, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("width-mismatched append did not panic")
		}
	}()
	a.Append(trajectory.GeoMark{}, []float64{-60})
}

// TestResolveOnSnapshotDuringAppends is the satellite race check at the
// trajectory level: take snapshots at quiescence, then run the full
// sequential resolution on them while both live trajectories keep
// appending. Run with -race this proves Snapshot is a sufficient
// decoupling boundary for concurrent resolution.
func TestResolveOnSnapshotDuringAppends(t *testing.T) {
	a := grown(300, 40)
	b := grown(280, 40)
	snapA, snapB := a.Snapshot(), b.Snapshot()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, live := range []*trajectory.Aware{a, b} {
		wg.Add(1)
		go func(live *trajectory.Aware) {
			defer wg.Done()
			power := make([]float64, 40)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for ch := range power {
					power[ch] = -75 + float64((i+ch)%9)
				}
				live.Append(trajectory.GeoMark{T: 1000 + float64(i)}, power)
			}
		}(live)
	}

	p := core.DefaultParams()
	p.WindowChannels = 30
	for round := 0; round < 5; round++ {
		core.Resolve(snapA, snapB, p)
	}
	close(stop)
	wg.Wait()
}
