package core

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"rups/internal/stats"
	"rups/internal/trajectory"
)

// goldenPath holds resolved estimates recorded with the scan from before
// the threshold-floor and early-abandon cuts went into the bounded scan:
// resolveGolden over goldenCases, run with the scan that still computed
// every direction's exact maximum. The file is the oracle the golden test
// trusts instead of today's core.Resolve, which is the very code those
// cuts changed — so it must never be regenerated from the code it checks.
// When power cells became whole-dB bytes the fixtures changed, and the
// file was re-recorded once by that older scan over fixtures rounded the
// way trajectory.CellByte rounds them. When the scan moved to exact
// integer moments the score bits changed (28 of 39 records; no outcome,
// distance or SYN index moved), and the file was re-recorded once more by
// an unbounded scan: every placement scored, no floor, bound or abandon.
var goldenPath = filepath.Join("testdata", "resolve_golden.json")

// goldenSYN and goldenRecord store every float as its IEEE-754 bit pattern
// (hex), so the comparison is bit-exact and survives any JSON float
// formatting.
type goldenSYN struct {
	IdxA      int    `json:"idx_a"`
	IdxB      int    `json:"idx_b"`
	Score     string `json:"score_bits"`
	WindowLen int    `json:"window_len"`
}

type goldenRecord struct {
	Name     string      `json:"name"`
	OK       bool        `json:"ok"`
	Distance string      `json:"distance_bits"`
	Score    string      `json:"score_bits"`
	SYNs     []goldenSYN `json:"syns"`
}

func floatBits(v float64) string { return strconv.FormatUint(math.Float64bits(v), 16) }

// goldenCase is one resolved pair: how to make its fixture, and its parameters.
type goldenCase struct {
	name string
	pair func(t *testing.T) (a, b *trajectory.Aware)
	p    func() Params
}

// goldenCases spans what the bounded scan must keep exact: the same road
// at several gaps on either side, contexts long enough to be clipped,
// contexts short enough for the §V-C relaxed window and threshold,
// unrelated roads and stale revisits (segments rejected below threshold),
// an oncoming vehicle (heading-gate rejection), missing cells (the sparse
// full-scan path), and the aggregation and ablation parameters.
func goldenCases() []goldenCase {
	def := DefaultParams
	road := func(gap float64, n int) func(t *testing.T) (a, b *trajectory.Aware) {
		return func(t *testing.T) (a, b *trajectory.Aware) { return pairOnRoad(t, gap, n) }
	}
	var cs []goldenCase
	for _, gap := range []float64{3, 8, 15, 25, 40, 60, 90, 130, 180, -12, -45, -110} {
		cs = append(cs, goldenCase{"same-road/gap" + strconv.FormatFloat(gap, 'g', -1, 64), road(gap, 320), def})
	}
	for _, gap := range []float64{20, 75} {
		cs = append(cs, goldenCase{"clipped/gap" + strconv.FormatFloat(gap, 'g', -1, 64), road(gap, 1150), def})
	}
	// Contexts at or below WindowMeters: every segment shrinks its window
	// (ShortCoherency); 110 m mixes full and shrunken windows.
	for _, c := range []struct {
		gap float64
		n   int
	}{{4, 45}, {10, 60}, {6, 75}, {18, 90}, {30, 110}, {12, 130}} {
		cs = append(cs, goldenCase{"short/n" + strconv.Itoa(c.n) + "/gap" + strconv.FormatFloat(c.gap, 'g', -1, 64), road(c.gap, c.n), def})
	}
	other := func(ax, ay, bx, by float64, n int, dt float64) func(t *testing.T) (a, b *trajectory.Aware) {
		return func(t *testing.T) (a, b *trajectory.Aware) {
			f := field(t)
			a = awareOnRoad(f, ax, ay, n, 1000, 12, 21)
			b = awareOnRoad(f, bx, by, n, 1000+dt, 12, 22)
			return a, b
		}
	}
	cs = append(cs,
		goldenCase{"other-road/parallel", other(500, 1500, 500, 900, 320, 0), def},
		goldenCase{"other-road/far", other(500, 1500, 1800, 2600, 320, 0), def},
		goldenCase{"other-road/near-parallel", other(500, 1500, 520, 1460, 320, 0), def},
		goldenCase{"other-road/offset-x", other(500, 1500, 1400, 1500, 320, 0), def},
		goldenCase{"other-road/short", other(500, 1500, 700, 400, 80, 0), def},
		goldenCase{"other-road/clipped", other(200, 700, 300, 2200, 1100, 0), def},
		goldenCase{"same-road/revisit-600s", other(500, 1500, 520, 1500, 320, 600), def},
		goldenCase{"same-road/revisit-short", other(500, 1500, 505, 1500, 70, 300), def},
	)
	oncoming := func(n int, gap float64) func(t *testing.T) (a, b *trajectory.Aware) {
		return func(t *testing.T) (a, b *trajectory.Aware) {
			a, b = pairOnRoad(t, gap, n)
			for i := range b.Geo.Marks {
				b.Geo.Marks[i].Theta = -math.Pi / 2
			}
			return a, b
		}
	}
	cs = append(cs,
		goldenCase{"heading-gate/oncoming", oncoming(320, 20), def},
		goldenCase{"heading-gate/oncoming-short", oncoming(80, 8), def},
		goldenCase{"heading-gate/off", oncoming(320, 20), func() Params {
			p := DefaultParams()
			p.HeadingGateRad = 0
			return p
		}},
	)
	sparse := func(t *testing.T) (a, b *trajectory.Aware) {
		a, b = pairOnRoad(t, 35, 320)
		for ch := 0; ch < 194; ch += 7 {
			for i := ch % 13; i < b.Len(); i += 29 {
				b.SetPower(ch, i, stats.Missing)
			}
		}
		return a, b
	}
	with := func(mod func(*Params)) func() Params {
		return func() Params {
			p := DefaultParams()
			mod(&p)
			return p
		}
	}
	cs = append(cs,
		goldenCase{"sparse/missing-cells", sparse, def},
		goldenCase{"agg/single", road(33, 320), with(func(p *Params) { p.Aggregation = SingleSYN })},
		goldenCase{"agg/mean", road(33, 320), with(func(p *Params) { p.Aggregation = MeanAgg })},
		goldenCase{"ablation/no-column-term", road(33, 320), with(func(p *Params) { p.NoColumnTerm = true })},
		goldenCase{"ablation/single-sided", road(-33, 320), with(func(p *Params) { p.SingleSided = true })},
		goldenCase{"params/strict-coherency", road(50, 320), with(func(p *Params) { p.Coherency = 1.6 })},
		goldenCase{"params/narrow-window", road(22, 320), with(func(p *Params) { p.WindowChannels = 12 })},
		goldenCase{"params/tight-locality", road(70, 320), with(func(p *Params) { p.MaxRelDistM = 40 })},
	)
	return cs
}

// resolveGolden resolves one case with the cold core.Resolve and records
// the outcome bit for bit.
func resolveGolden(t *testing.T, c goldenCase) goldenRecord {
	a, b := c.pair(t)
	est, ok := Resolve(a, b, c.p())
	rec := goldenRecord{Name: c.name, OK: ok, Distance: floatBits(est.Distance), Score: floatBits(est.Score)}
	for _, s := range est.SYNs {
		rec.SYNs = append(rec.SYNs, goldenSYN{IdxA: s.IdxA, IdxB: s.IdxB, Score: floatBits(s.Score), WindowLen: s.WindowLen})
	}
	return rec
}

// TestResolveGolden pins core.Resolve to the recorded estimates: every SYN
// point, score and distance must match to the bit, rejections included.
func TestResolveGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("samples ~4M field cells to build its fixtures")
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	cases := goldenCases()
	if len(want) != len(cases) {
		t.Fatalf("golden file has %d records, fixtures define %d", len(want), len(cases))
	}
	var accepted, rejected int
	for i, c := range cases {
		got := resolveGolden(t, c)
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want[i])
		if string(gj) != string(wj) {
			t.Errorf("%s:\n got  %s\n want %s", c.name, gj, wj)
		}
		if want[i].OK {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("golden set must cover both outcomes (accepted %d, rejected %d)", accepted, rejected)
	}
}
