package eval

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ledgerDir holds the fidelity ledger: every experiment's table at the
// quick scale and seed 42, as `rups-eval -quick -csv <dir>` writes it, with
// the wall-time cells below replaced by wallMark. Everything else in a
// quick run is a pure function of the seed, so the ledger pins every
// reported figure exactly: a change that moves one re-records the ledger
// with that command (the wall cells need no editing — the comparison masks
// them on both sides) and its diff is the reviewed record of the move.
var ledgerDir = filepath.Join("testdata", "ledger")

// wallCells declares the ledger cells that are wall-clock measurements:
// experiment id → row label (first column) → column index.
var wallCells = map[string]map[string]int{
	"latency": {"SYN search, 1 km context, 45ch × 85 m window": 1},
}

const wallMark = "(wall time)"

// ledgerRecords parses a ledger CSV and masks the experiment's wall cells.
func ledgerRecords(t *testing.T, id string, b []byte) [][]string {
	t.Helper()
	r := csv.NewReader(bytes.NewReader(b))
	r.FieldsPerRecord = -1 // note rows have one field
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	for _, rec := range recs {
		if col, ok := wallCells[id][rec[0]]; ok && col < len(rec) {
			rec[col] = wallMark
		}
	}
	return recs
}

// TestFidelityLedger regenerates every experiment at the quick scale and
// diffs its CSV against the ledger cell for cell.
func TestFidelityLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at the quick scale")
	}
	files, err := filepath.Glob(filepath.Join(ledgerDir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, id := range IDs() {
		known[id] = true
	}
	for _, f := range files {
		if id := strings.TrimSuffix(filepath.Base(f), ".csv"); !known[id] {
			t.Errorf("ledger file %s names no experiment", f)
		}
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			raw, err := os.ReadFile(filepath.Join(ledgerDir, id+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := ByID(id)(quick).WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			want := ledgerRecords(t, id, raw)
			got := ledgerRecords(t, id, buf.Bytes())
			for i := 0; i < max(len(got), len(want)); i++ {
				var g, w []string
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				if strings.Join(g, "\x00") != strings.Join(w, "\x00") {
					t.Errorf("%s row %d:\n got  %q\n want %q", id, i, g, w)
				}
			}
		})
	}
}
