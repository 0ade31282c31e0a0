package obs

import "testing"

// TestHotPathZeroAlloc pins the tentpole's zero-alloc contract: every
// hot-path telemetry operation — counter/gauge/histogram updates and span
// recording into the ring — allocates nothing, enabled or disabled. The
// searcher-level end-to-end version of this guarantee lives in
// internal/core's telemetry test and BenchmarkSearcherInstrumented (go
// test -bench at the repo root).
func TestHotPathZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("alloc_total", "")
	g := reg.Gauge("alloc_depth", "")
	h := reg.Histogram("alloc_seconds", "", -20, 4)
	rec := NewRecorder(64)
	tr := rec.NewTrace()

	cases := []struct {
		name string
		f    func()
	}{
		{"counter", func() { c.Add(3); c.Inc() }},
		{"gauge", func() { g.Add(1); g.RaiseTo(g.Value()); g.Add(-1) }},
		{"histogram", func() { h.Observe(0.0017); h.Observe(123456) }},
		{"span", func() {
			sp := rec.Start(tr, "stage")
			sp.Arg = 7
			sp.End()
		}},
		{"child span", func() {
			parent := rec.Start(tr, "parent")
			rec.StartChild(tr, parent.ID(), "child").End()
			parent.End()
		}},
		{"nil handles", func() {
			var nc *Counter
			var ng *Gauge
			var nh *Histogram
			var nr *Recorder
			nc.Inc()
			ng.Set(1)
			nh.Observe(2)
			nr.Start(0, "x").End()
			nr.StartChild(0, 0, "x").End()
		}},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, tc.f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}

// TestViewGetZeroAlloc: the per-call cost of an instrument site fetching
// its handles must also be alloc-free in both states.
func TestViewGetZeroAlloc(t *testing.T) {
	defer Disable()
	type handles struct{ c *Counter }
	v := NewView(func(r *Registry) *handles {
		return &handles{c: r.Counter("view_alloc_total", "")}
	})
	Disable()
	if n := testing.AllocsPerRun(200, func() {
		if v.Get() != nil {
			t.Fatal("disabled view not nil")
		}
	}); n != 0 {
		t.Errorf("disabled View.Get: %v allocs/op, want 0", n)
	}
	Enable(NewRegistry())
	v.Get() // build once
	if n := testing.AllocsPerRun(200, func() { v.Get().c.Inc() }); n != 0 {
		t.Errorf("enabled View.Get: %v allocs/op, want 0", n)
	}
}
