package engine_test

import (
	"reflect"
	"testing"

	"rups/internal/core"
	"rups/internal/engine"
	"rups/internal/trajectory"
)

// TestStalenessTransitions drives one pair through the full degradation
// ladder as its context ages: resolved (fresh) → resolved-but-flagged
// (stale) → unresolved (expired). The estimate while stale must be the
// same d_r as while fresh — degraded means "older data", never "different
// answer" — and expiry must refuse cleanly rather than panic or fabricate.
func TestStalenessTransitions(t *testing.T) {
	e := engine.New(4)
	defer e.Close()
	trajs := syntheticConvoy(3, 2, 400, 30, 0.5)
	b, err := e.Admit(trajs...)
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int{{0, 1}}
	pol := core.Staleness{StaleAfterSec: 30, ExpireAfterSec: 150}
	// syntheticConvoy stamps vehicle vi's marks T = 1000 - vi + i, so with
	// length 400 the younger context ends at T = 1398; the pair's age at
	// time now is now - 1398.
	const newest = 1398.0

	fresh := b.ResolvePairsAt(pairs, convoyParams(), newest+5, pol)[0]
	if !fresh.OK || fresh.Freshness != core.FreshContext {
		t.Fatalf("fresh pair: OK=%v Freshness=%v", fresh.OK, fresh.Freshness)
	}

	stale := b.ResolvePairsAt(pairs, convoyParams(), newest+100, pol)[0]
	if !stale.OK || stale.Freshness != core.StaleContext {
		t.Fatalf("aged pair: OK=%v Freshness=%v, want resolved and flagged", stale.OK, stale.Freshness)
	}
	if !reflect.DeepEqual(stale.Est, fresh.Est) {
		t.Fatalf("stale estimate %+v differs from fresh %+v — degradation changed the answer", stale.Est, fresh.Est)
	}

	expired := b.ResolvePairsAt(pairs, convoyParams(), newest+200, pol)[0]
	if expired.OK || expired.Freshness != core.ExpiredContext {
		t.Fatalf("expired pair: OK=%v Freshness=%v, want refused", expired.OK, expired.Freshness)
	}
	if !reflect.DeepEqual(expired.Est, core.Estimate{}) {
		t.Fatalf("expired pair carries an estimate: %+v", expired.Est)
	}
}

// A disabled policy must be bit-identical to the plain path.
func TestStalenessDisabledMatchesResolvePairs(t *testing.T) {
	e := engine.New(4)
	defer e.Close()
	trajs := syntheticConvoy(4, 3, 400, 25, 0.5)
	b, err := e.Admit(trajs...)
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 99}}
	plain := b.ResolvePairs(pairs, convoyParams())
	at := b.ResolvePairsAt(pairs, convoyParams(), 1e12, core.Staleness{})
	if !reflect.DeepEqual(plain, at) {
		t.Fatalf("disabled policy diverged:\n%+v\nvs\n%+v", plain, at)
	}
}

// An empty context is infinitely old: the pair expires instead of
// panicking inside the resolver.
func TestStalenessEmptyContextExpires(t *testing.T) {
	e := engine.New(2)
	defer e.Close()
	trajs := syntheticConvoy(5, 1, 400, 30, 0.5)
	empty := trajectory.NewAwareWidth(trajectory.Geo{}, 64)
	b, err := e.Admit(trajs[0], empty)
	if err != nil {
		t.Fatal(err)
	}
	pol := core.DefaultStaleness()
	r := b.ResolvePairsAt([][2]int{{0, 1}}, convoyParams(), 1399, pol)[0]
	if r.OK || r.Freshness != core.ExpiredContext {
		t.Fatalf("pair against an empty context: OK=%v Freshness=%v", r.OK, r.Freshness)
	}
	// Out-of-range indexes still refuse cleanly under a policy.
	r = b.ResolvePairsAt([][2]int{{0, 7}}, convoyParams(), 1399, pol)[0]
	if r.OK {
		t.Fatal("out-of-range pair resolved")
	}
}
