package trajectory_test

import (
	"reflect"
	"sync"
	"testing"

	"rups/internal/stats"
	"rups/internal/trajectory"
)

// cellVal is a deterministic per-cell fingerprint for boundary tests: a
// whole dB inside the cell range, so it is stored exactly, and shifting a
// row by any column count under 255 changes it.
func cellVal(ch, i int) float64 { return -110 + float64((ch*89+i*7)%255) }

// TestChunkBoundaryAppends grows a trajectory one mark at a time across
// several chunk seams (ChunkMarks = 128) and checks every cell lands where
// it was written.
func TestChunkBoundaryAppends(t *testing.T) {
	const width, n = 3, 300
	a := trajectory.NewAwareWidth(trajectory.Geo{}, width)
	power := make([]float64, width)
	for i := 0; i < n; i++ {
		for ch := range power {
			power[ch] = cellVal(ch, i)
		}
		a.Append(trajectory.GeoMark{T: float64(i)}, power)
	}
	if a.Len() != n {
		t.Fatalf("len %d after %d appends", a.Len(), n)
	}
	for ch := 0; ch < width; ch++ {
		for i := 0; i < n; i++ {
			if got := a.At(ch, i); got != cellVal(ch, i) {
				t.Fatalf("cell (%d,%d) = %v, want %v", ch, i, got, cellVal(ch, i))
			}
		}
	}
}

// TestAppendColumnsAcrossChunks: a batch append spanning multiple chunk
// seams (the v2v chunk-apply path) writes every column correctly.
func TestAppendColumnsAcrossChunks(t *testing.T) {
	const width = 2
	a := grown(100, width)
	const added = 200 // crosses the 128 and 256 seams
	marks := make([]trajectory.GeoMark, added)
	rows := make([][]float64, width)
	for ch := range rows {
		rows[ch] = make([]float64, added)
	}
	for i := 0; i < added; i++ {
		marks[i] = trajectory.GeoMark{T: float64(100 + i)}
		for ch := range rows {
			rows[ch][i] = cellVal(ch, 100+i)
		}
	}
	a.AppendColumns(marks, rows)
	if a.Len() != 300 {
		t.Fatalf("len %d after batch append, want 300", a.Len())
	}
	for ch := 0; ch < width; ch++ {
		for i := 100; i < 300; i++ {
			if got := a.At(ch, i); got != cellVal(ch, i) {
				t.Fatalf("cell (%d,%d) = %v, want %v", ch, i, got, cellVal(ch, i))
			}
		}
	}
}

// TestSnapshotCOWOnRewrite: rewriting history under a snapshot must
// copy-on-write the sealed chunks — the snapshot keeps the old values, the
// live trajectory carries the new ones.
func TestSnapshotCOWOnRewrite(t *testing.T) {
	a := grown(300, 3) // spans three chunks
	s := a.Snapshot()
	for ch := 0; ch < 3; ch++ {
		for i := 0; i < 300; i++ {
			a.SetPower(ch, i, -1)
		}
	}
	for ch := 0; ch < 3; ch++ {
		for i := 0; i < 300; i++ {
			if got := s.At(ch, i); got == -1 {
				t.Fatalf("snapshot cell (%d,%d) observed a post-snapshot rewrite", ch, i)
			}
			if got := a.At(ch, i); got != -1 {
				t.Fatalf("live cell (%d,%d) = %v after rewrite, want -1", ch, i, got)
			}
		}
	}
}

// TestViewSeesCOWSwap pins the documented aliasing contract at the chunk
// level: a Tail/PrefixUntil view shares the chunk table with the live
// trajectory, so even a write that COW-swaps a sealed chunk (because a
// snapshot pinned it) must remain visible through the view.
func TestViewSeesCOWSwap(t *testing.T) {
	a := grown(300, 2)
	v := a.Tail(250) // view spanning all three chunks
	s := a.Snapshot()
	a.SetPower(1, 60, -5) // chunk 0 is pinned by s → COW swap
	if got := v.At(1, 10); got != -5 {
		t.Fatalf("view read %v through a COW-swapped chunk, want -5", got)
	}
	if got := s.At(1, 60); got == -5 {
		t.Fatal("snapshot observed the rewrite despite the COW swap")
	}
}

// TestMissingFracCorners pins the NaN fix: a zero-channel trajectory with
// marks (the zero-value Aware dressed with geometry) and a zero-mark
// trajectory must both answer 0, not 0/0.
func TestMissingFracCorners(t *testing.T) {
	g := trajectory.Geo{Marks: make([]trajectory.GeoMark, 5)}
	zeroCh := trajectory.Aware{Geo: g}
	if frac := zeroCh.MissingFrac(); frac != 0 {
		t.Fatalf("zero-channel MissingFrac = %v, want 0", frac)
	}
	zeroMark := trajectory.NewAwareWidth(trajectory.Geo{}, 4)
	if frac := zeroMark.MissingFrac(); frac != 0 {
		t.Fatalf("zero-mark MissingFrac = %v, want 0", frac)
	}
	// Sanity: the ordinary case still counts.
	a := trajectory.NewAwareWidth(g, 2)
	a.SetPower(0, 0, -70)
	if frac := a.MissingFrac(); frac != 0.9 {
		t.Fatalf("MissingFrac = %v, want 0.9", frac)
	}
}

// TestTailCountsMarks pins the unit fix in Tail's contract: the argument
// counts metre marks, not metres along some other scale — Tail(n) is
// exactly the last n marks.
func TestTailCountsMarks(t *testing.T) {
	a := grown(50, 2)
	v := a.Tail(7)
	if v.Len() != 7 {
		t.Fatalf("Tail(7).Len() = %d, want 7", v.Len())
	}
	if v.Geo.Marks[0].T != a.Geo.Marks[43].T {
		t.Fatal("Tail(7) does not start at the 7th-from-last mark")
	}
	if all := a.Tail(500); all.Len() != 50 {
		t.Fatalf("over-long Tail clamps to full length, got %d", all.Len())
	}
}

// TestSnapshotSurvivesLiveRewrites is the interning race hammer: while the
// live trajectory's single writer rewrites history in place (COW swaps on
// pinned chunks) and extends it past fresh chunk seams, readers iterating
// a snapshot — cell by cell, and tile-wise through the channel ranking —
// must always see the pre-snapshot values. Run with -race this proves the
// sealed-chunk sharing contract: a trajectory has one writer goroutine,
// and only snapshot reads may run beside it.
func TestSnapshotSurvivesLiveRewrites(t *testing.T) {
	const width, n = 8, 300
	a := grown(n, width)
	s := a.Snapshot()
	wantTop := s.TopChannels(width)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the writer: history rewrites forcing COW swaps under the snapshot, and appends growing the shared tail chunk and beyond
		defer wg.Done()
		power := make([]float64, width)
		for ch := range power {
			power[ch] = -1
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a.SetPower(i%width, (i*37)%n, -1)
			a.Append(trajectory.GeoMark{T: float64(n + i)}, power)
		}
	}()
	go func() { // a tile reader: the channel ranking sums whole snapshot rows
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := s.TopChannels(width); !reflect.DeepEqual(got, wantTop) {
				t.Errorf("snapshot ranking moved: %v, want %v", got, wantTop)
				return
			}
		}
	}()

	for round := 0; round < 50; round++ {
		if s.Len() != n {
			t.Errorf("snapshot length moved: %d", s.Len())
			break
		}
		for ch := 0; ch < width; ch++ {
			for i := 0; i < n; i++ {
				if got := s.At(ch, i); got == -1 || stats.IsMissing(got) {
					t.Errorf("round %d: snapshot cell (%d,%d) = %v — live mutation leaked in",
						round, ch, i, got)
					close(stop)
					wg.Wait()
					return
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestCellAccessorsMatchFloatRows: the byte row read and the byte append
// are the float64 ones seen through CellByte, across tile seams — a read
// of any span equals CellByte of RowCopy, and appending the same columns
// as cells or as dBm rows builds the same trajectory.
func TestCellAccessorsMatchFloatRows(t *testing.T) {
	const width = 3
	a := grown(300, width)
	a.SetPower(1, 127, stats.Missing)
	for _, span := range [][2]int{{0, 300}, {120, 136}, {127, 129}, {250, 300}, {5, 5}} {
		lo, hi := span[0], span[1]
		for ch := 0; ch < width; ch++ {
			got := make([]uint8, hi-lo)
			a.CopyCellsInto(ch, lo, got)
			for i, v := range a.RowCopy(ch, lo, hi) {
				if want := trajectory.CellByte(v); got[i] != want {
					t.Fatalf("cell (%d,%d) read as %#x, want %#x", ch, lo+i, got[i], want)
				}
			}
		}
	}

	viaCells, viaRows := grown(100, width), grown(100, width)
	const added = 200        // crosses the 128 and 256 seams
	const stride = added + 3 // rows need not be packed
	marks := make([]trajectory.GeoMark, added)
	cells, rows := make([]uint8, width*stride), make([][]float64, width)
	for i := range marks {
		marks[i] = trajectory.GeoMark{Theta: 0.01 * float64(i), T: float64(100 + i)}
	}
	for ch := range rows {
		rows[ch] = make([]float64, added)
		for i := range rows[ch] {
			rows[ch][i] = cellVal(ch, 100+i)
			cells[ch*stride+i] = trajectory.CellByte(rows[ch][i])
		}
	}
	cells[2*stride+50] = trajectory.MissingCell
	rows[2][50] = stats.Missing
	viaCells.AppendCellColumns(marks, cells, stride)
	viaRows.AppendColumns(marks, rows)
	if !reflect.DeepEqual(viaCells.Geo, viaRows.Geo) {
		t.Fatal("cell append and row append built different geometry")
	}
	for ch := 0; ch < width; ch++ {
		got := make([]uint8, viaCells.Len())
		want := make([]uint8, viaRows.Len())
		viaCells.CopyCellsInto(ch, 0, got)
		viaRows.CopyCellsInto(ch, 0, want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("channel %d differs between the cell and row appends", ch)
		}
	}
}

// TestAppendCellColumnsRefusesViews: a byte append through a snapshot or a
// view panics before it writes anything, like every other write path.
func TestAppendCellColumnsRefusesViews(t *testing.T) {
	a := grown(200, 2)
	for name, v := range map[string]*trajectory.Aware{
		"snapshot": a.Snapshot(),
		"tail":     a.Tail(100),
		"prefix":   a.PrefixUntil(150),
	} {
		n := v.Len()
		before := make([]uint8, n)
		v.CopyCellsInto(1, 0, before)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AppendCellColumns did not panic", name)
				}
			}()
			v.AppendCellColumns([]trajectory.GeoMark{{T: 1e3}}, []uint8{7, 9}, 1)
		}()
		after := make([]uint8, v.Len())
		v.CopyCellsInto(1, 0, after)
		if v.Len() != n || !reflect.DeepEqual(before, after) {
			t.Errorf("%s: the refused append changed the trajectory", name)
		}
	}
	if a.Len() != 200 {
		t.Fatalf("owner grew to %d marks through a view", a.Len())
	}
}
