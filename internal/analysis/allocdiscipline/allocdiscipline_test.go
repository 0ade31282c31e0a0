package allocdiscipline_test

import (
	"path/filepath"
	"strings"
	"testing"

	"rups/internal/analysis"
	"rups/internal/analysis/allocdiscipline"
	"rups/internal/analysis/analysistest"
	"rups/internal/analysis/dataflow"
	"rups/internal/analysis/loader"
)

func TestAllocdiscipline(t *testing.T) {
	analysistest.Run(t, "../testdata", allocdiscipline.Analyzer, "allocdiscipline")
}

// TestSuggestedFix checks the fix payload: the edit inserts the proven
// capacity after the zero length argument.
func TestSuggestedFix(t *testing.T) {
	diags := runOnGolden(t)
	var fixed []analysis.Diagnostic
	for _, d := range diags {
		if len(d.Fixes) > 0 {
			fixed = append(fixed, d)
		}
	}
	if len(fixed) != 2 {
		t.Fatalf("got %d diagnostics with fixes, want 2", len(fixed))
	}
	for _, d := range fixed {
		fix := d.Fixes[0]
		if len(fix.Edits) != 1 {
			t.Fatalf("fix has %d edits, want 1", len(fix.Edits))
		}
		e := fix.Edits[0]
		if e.Pos.Offset != e.End.Offset {
			t.Errorf("capacity fix must be a pure insertion, got [%d, %d)", e.Pos.Offset, e.End.Offset)
		}
		if !strings.HasPrefix(e.NewText, ", ") {
			t.Errorf("edit %q does not insert a capacity argument", e.NewText)
		}
	}
	// preallocTwoPerIter: 6 proven trips × 2 elements.
	found := false
	for _, d := range fixed {
		for _, e := range d.Fixes[0].Edits {
			if e.NewText == ", 12" {
				found = true
			}
		}
	}
	if !found {
		t.Error("no fix inserts the summed capacity 12")
	}
}

// TestReportRanksDepth checks the report's cost model on the golden
// package: an allocation two loops deep outranks the same allocation one
// loop deep.
func TestReportRanksDepth(t *testing.T) {
	prog := loadGolden(t)
	sites := allocdiscipline.Report(prog)
	if len(sites) == 0 {
		t.Fatal("no allocation sites found")
	}
	for i := 1; i < len(sites); i++ {
		if sites[i].Score > sites[i-1].Score {
			t.Fatalf("report not sorted: site %d score %.0f > site %d score %.0f",
				i, sites[i].Score, i-1, sites[i-1].Score)
		}
	}
	// Formatting stays stable enough to grep.
	text := allocdiscipline.FormatReport(sites, 3)
	if !strings.Contains(text, "depth=") || !strings.Contains(text, "count=") {
		t.Errorf("report text missing columns:\n%s", text)
	}
}

// TestReportSizesTypeParams: an allocation whose element size depends on a
// type parameter — a T, or a struct holding one — is reported at one word
// instead of asking go/types for a size it asserts it cannot give.
func TestReportSizesTypeParams(t *testing.T) {
	want := map[string]bool{"cappedGeneric": false, "genericPairs": false}
	for _, s := range allocdiscipline.Report(loadGolden(t)) {
		for fn := range want {
			if strings.HasSuffix(s.Fn, fn) && s.Kind == "make" {
				want[fn] = true
				if s.ElemBytes != 8 {
					t.Errorf("%s: element sized %d bytes, want one word", fn, s.ElemBytes)
				}
			}
		}
	}
	for fn, seen := range want {
		if !seen {
			t.Errorf("no make site reported in %s", fn)
		}
	}
}

// TestReportAdmitSnapshotNoLongerTops pins the post-interning acceptance
// contract on the real module: snapshot interning removed the engine.Admit
// deep copy (Snapshot used to reach trajectory.Clone, the #1 site of the
// PR-7 worklist), so no ranked site may reach a cell-storage deep copy
// through Admit -> Snapshot any more.
func TestReportAdmitSnapshotNoLongerTops(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full module")
	}
	pkgs, err := loader.Load(filepath.Join("..", "..", ".."), "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	sites := allocdiscipline.Report(dataflow.NewProgram(pkgs))
	if len(sites) == 0 {
		t.Fatal("no allocation sites found")
	}
	for _, site := range sites {
		chain := strings.Join(site.Chain, " -> ")
		if strings.Contains(chain, "Admit") && strings.Contains(chain, "Snapshot") &&
			strings.Contains(site.Fn, "Clone") {
			t.Errorf("Admit -> Snapshot still reaches a deep copy: %s at %s (chain %q)",
				site.Fn, site.Pos, chain)
		}
	}
}

func loadGolden(t *testing.T) *dataflow.Program {
	t.Helper()
	pkgs, err := loader.Load(filepath.Join("..", "testdata", "src"), "./allocdiscipline")
	if err != nil {
		t.Fatalf("load golden package: %v", err)
	}
	return dataflow.NewProgram(pkgs)
}

func runOnGolden(t *testing.T) []analysis.Diagnostic {
	t.Helper()
	pkgs, err := loader.Load(filepath.Join("..", "testdata", "src"), "./allocdiscipline")
	if err != nil {
		t.Fatalf("load golden package: %v", err)
	}
	res, err := analysis.RunAll(pkgs, []*analysis.Analyzer{allocdiscipline.Analyzer}, dataflow.NewProgram(pkgs), 1)
	if err != nil {
		t.Fatal(err)
	}
	return res.Diags
}
