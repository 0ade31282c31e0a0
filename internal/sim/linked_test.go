package sim

import (
	"math"
	"reflect"
	"testing"

	"rups/internal/city"
	"rups/internal/core"
	"rups/internal/engine"
	"rups/internal/link"
	"rups/internal/obs"
	"rups/internal/obs/slo"
	"rups/internal/v2v"
)

// settle drives the mesh to quiescence at time t, bounded.
func settle(t *testing.T, lc *LinkedConvoy, at float64) {
	t.Helper()
	for i := 0; i < 50000 && !lc.Quiescent(); i++ {
		lc.Advance(at)
	}
	if !lc.Quiescent() {
		t.Fatalf("mesh not quiescent at t=%.1f (max lag %d marks)", at, lc.MaxLag())
	}
}

// TestLinkedCleanMatchesDirectAdmit is the acceptance oracle: with loss=0
// the reliable path — chunked, fragmented, CRC-framed, acked, reassembled —
// must produce byte-equivalent pair resolutions to handing the engine the
// trajectories directly.
func TestLinkedCleanMatchesDirectAdmit(t *testing.T) {
	r := getConvoy(t)
	t0, t1 := r.TimeSpan()
	tq := t0 + 0.8*(t1-t0)
	lc := NewLinkedConvoy(r, link.Params{Seed: 1}, v2v.SyncConfig{}, core.Staleness{})
	for ts := t0 + 0.5; ts < tq; ts += 0.5 {
		lc.Advance(ts)
	}
	lc.Advance(tq)
	settle(t, lc, tq)

	e := engine.New(0)
	defer e.Close()
	p := core.DefaultParams()
	got, err := lc.ResolveAllAt(e, tq, p)
	if err != nil {
		t.Fatal(err)
	}
	want := directResolve(t, e, r, tq, p)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("clean reliable path diverged from direct Admit:\n%+v\nvs\n%+v", got, want)
	}
}

// chaosFaults is the lossy regime of the chaos scenarios: 20% i.i.d. loss
// with occasional multi-frame burst outages, light reordering, duplication
// and corruption.
func chaosFaults(seed uint64) link.Params {
	return link.Params{
		Seed: seed, Loss: 0.2,
		BurstEnter: 0.01, BurstExit: 0.1,
		Reorder: 0.05, Duplicate: 0.02, Corrupt: 0.02, Jitter: 2,
	}
}

// runChaosConvoy executes the 6-vehicle lossy-then-healed scenario and
// returns the final pair resolutions with the query time.
func runChaosConvoy(t *testing.T, run *ConvoyRun, linkSeed uint64) ([]engine.Result, float64) {
	t.Helper()
	t0, t1 := run.TimeSpan()
	lc := NewLinkedConvoy(run, chaosFaults(linkSeed), v2v.SyncConfig{Seed: linkSeed}, core.DefaultStaleness())
	healAt := t0 + 0.6*(t1-t0)
	tq := t0 + 0.9*(t1-t0)
	healed := false
	for ts := t0 + 0.5; ts < tq; ts += 0.5 {
		if !healed && ts >= healAt {
			lc.SetFaults(link.Params{Seed: linkSeed})
			healed = true
		}
		lc.Advance(ts)
	}
	lc.Advance(tq)
	settle(t, lc, tq)

	e := engine.New(0)
	defer e.Close()
	res, err := lc.ResolveAllAt(e, tq, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return res, tq
}

// TestChaosConvoyConvergesAfterHeal: a 6-vehicle convoy syncs under 20%
// i.i.d. loss plus burst outages for most of the drive; once the link
// heals, every one of the 15 pairs must resolve within tolerance —
// deterministically for the link seed. Run in CI under -race across three
// fixed seeds.
func TestChaosConvoyConvergesAfterHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos convoy sim skipped in -short mode")
	}
	// A scenario where the direct (perfect-channel) path resolves all 15
	// pairs, so any failure here is the link layer's fault.
	sc := DefaultScenario(29, city.FourLaneUrban)
	sc.DistanceM = 900
	sc.Radios = 8
	sc.InitGapM = 10
	run := ExecuteConvoy(sc, 6)

	res, tq := runChaosConvoy(t, run, 1701)
	if len(res) != 15 {
		t.Fatalf("6-vehicle convoy produced %d pair results, want 15", len(res))
	}
	for _, pr := range res {
		if !pr.OK {
			t.Errorf("pair (%d,%d) unresolved after the link healed", pr.A, pr.B)
			continue
		}
		if pr.Freshness != core.FreshContext {
			t.Errorf("pair (%d,%d) still stale after full recovery", pr.A, pr.B)
		}
		truth := run.TruthGapAt(pr.A, pr.B, tq)
		if err := math.Abs(pr.Est.Distance - truth); err > 30 {
			t.Errorf("pair (%d,%d): estimate %.1f vs truth %.1f (err %.1f m)",
				pr.A, pr.B, pr.Est.Distance, truth, err)
		}
	}

	// Determinism: the same link seed replays the identical lossy run.
	again, _ := runChaosConvoy(t, run, 1701)
	if !reflect.DeepEqual(res, again) {
		t.Fatal("same link seed produced different chaos results")
	}
}

// TestLinkedOutageDegradesGracefully: under a permanent total outage the
// mesh keeps stepping (backing off, not spinning), copies stay empty, and
// resolution refuses every pair via the staleness policy instead of
// panicking or fabricating distances.
func TestLinkedOutageDegradesGracefully(t *testing.T) {
	r := getConvoy(t)
	t0, t1 := r.TimeSpan()
	dead := link.Params{Seed: 3, BurstEnter: 1, BurstExit: 0}
	lc := NewLinkedConvoy(r, dead, v2v.SyncConfig{Seed: 3}, core.DefaultStaleness())
	tq := t0 + 0.5*(t1-t0)
	for ts := t0 + 0.5; ts <= tq; ts += 0.5 {
		lc.Advance(ts)
	}
	if lag := lc.MaxLag(); lag == 0 {
		t.Fatal("total outage but no sync lag — frames got through a dead link")
	}
	e := engine.New(0)
	defer e.Close()
	res, err := lc.ResolveAllAt(e, tq, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range res {
		if pr.OK {
			t.Errorf("pair (%d,%d) resolved from an empty link-delivered copy", pr.A, pr.B)
		}
	}
}

// TestLinkedUsageCountsEveryChannel: the mesh's usage is every data and ack
// channel's together, and the data it carried covers at least the 16 B of
// geometry of every mark the copies hold.
func TestLinkedUsageCountsEveryChannel(t *testing.T) {
	r := getConvoy(t)
	t0, _ := r.TimeSpan()
	lc := NewLinkedConvoy(r, link.Params{Seed: 4}, v2v.SyncConfig{}, core.Staleness{})
	for ts := t0 + 0.5; ts <= t0+20; ts += 0.5 {
		lc.Advance(ts)
	}
	var want link.Usage
	marks := 0
	for _, pl := range lc.links {
		want = want.Plus(pl.data.Usage()).Plus(pl.ack.Usage())
		marks += pl.sess.Copy().Len()
	}
	got := lc.Usage()
	if got != want || got.Frames == 0 {
		t.Fatalf("mesh usage %+v, channels sum to %+v", got, want)
	}
	if marks == 0 || got.Bytes < 16*marks {
		t.Fatalf("%d bytes carried for %d delivered marks", got.Bytes, marks)
	}
}

// TestResolveAllAtAdmitsEachContextOnce: one tick admits every vehicle's
// own prefix once and every pair's synced copy once — N + L snapshots,
// not a fresh prefix of the resolver per pair (2·L).
func TestResolveAllAtAdmitsEachContextOnce(t *testing.T) {
	sc := DefaultScenario(17, city.FourLaneUrban)
	sc.DistanceM = 150
	sc.InitGapM = 20
	const n = 4
	run := ExecuteConvoy(sc, n)
	t0, t1 := run.TimeSpan()
	lc := NewLinkedConvoy(run, link.Params{Seed: 5}, v2v.SyncConfig{}, core.Staleness{})
	tq := (t0 + t1) / 2
	lc.Advance(tq)

	reg := obs.NewRegistry()
	obs.Enable(reg)
	defer obs.Disable()
	snaps := reg.Counter("rups_trajectory_snapshots_total", "")
	e := engine.New(1)
	defer e.Close()
	before := snaps.Value()
	res, err := lc.ResolveAllAt(e, tq, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	pairs := n * (n - 1) / 2
	if len(res) != pairs {
		t.Fatalf("%d results, want %d", len(res), pairs)
	}
	if got := snaps.Value() - before; got != uint64(n+pairs) {
		t.Fatalf("one tick of %d vehicles took %d snapshots, want N + L = %d", n, got, n+pairs)
	}
}

// TestResolveAllAtSharesResolverSides: pair (i, j) resolves at vehicle
// i, so one clean 6-vehicle tick runs 15 searches over 5 resolver sides —
// one per resolving vehicle, not one per pair.
func TestResolveAllAtSharesResolverSides(t *testing.T) {
	sc := DefaultScenario(17, city.FourLaneUrban)
	sc.DistanceM = 150
	sc.InitGapM = 20
	const n = 6
	run := ExecuteConvoy(sc, n)
	t0, t1 := run.TimeSpan()
	lc := NewLinkedConvoy(run, link.Params{Seed: 5}, v2v.SyncConfig{}, core.Staleness{})
	tq := (t0 + t1) / 2
	lc.Advance(tq)

	reg := obs.NewRegistry()
	obs.Enable(reg)
	defer obs.Disable()
	sides := reg.Counter("rups_engine_resolver_sides_total", "")
	searches := reg.Counter("rups_searcher_searches_total", "")
	e := engine.New(2)
	defer e.Close()
	sides0, searches0 := sides.Value(), searches.Value()
	if _, err := lc.ResolveAllAt(e, tq, core.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if got := sides.Value() - sides0; got != n-1 {
		t.Fatalf("one tick of %d vehicles built %d resolver sides, want %d", n, got, n-1)
	}
	if got := searches.Value() - searches0; got != n*(n-1)/2 {
		t.Fatalf("one tick of %d vehicles ran %d searches, want %d", n, got, n*(n-1)/2)
	}
}

// TestLinkedCleanAvailability: on a clean link nothing fails, so the
// pair_availability SLO sees no bad observation, whether or not each
// pair's contexts share a SYN at every tick.
func TestLinkedCleanAvailability(t *testing.T) {
	r := getConvoy(t)
	t0, t1 := r.TimeSpan()
	lc := NewLinkedConvoy(r, link.Params{Seed: 6}, v2v.SyncConfig{}, core.DefaultStaleness())
	lc.SLO = slo.New(slo.DefaultRoster(), nil)
	e := engine.New(0)
	defer e.Close()
	unresolved := 0
	for ts := t0 + 20; ts <= t1; ts += 4 {
		lc.Advance(ts)
		res, err := lc.ResolveAllAt(e, ts, core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range res {
			if !pr.OK {
				unresolved++
			}
		}
	}
	for _, st := range lc.SLO.Statuses() {
		if st.Name != "pair_availability" {
			continue
		}
		if st.BadTotal != 0 || st.GoodTotal == 0 {
			t.Fatalf("clean link: pair_availability good=%d bad=%d (%d pairs unresolved), want no bad",
				st.GoodTotal, st.BadTotal, unresolved)
		}
		return
	}
	t.Fatal("pair_availability missing from the default roster")
}
