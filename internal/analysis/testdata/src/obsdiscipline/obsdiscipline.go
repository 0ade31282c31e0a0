// Package obsdiscipline is the golden-diagnostic package for the
// obsdiscipline analyzer. It instruments against the real
// rups/internal/obs layer.
package obsdiscipline

import (
	"rups/internal/obs"
	"rups/internal/obs/flight"
)

type tel struct {
	hits *obs.Counter
}

// view is the sanctioned pattern: handles built once inside the NewView
// build function, fetched with one atomic load per Get.
var view = obs.NewView(func(r *obs.Registry) *tel {
	return &tel{hits: r.Counter("hits_total", "total hits")}
})

// goodLoop pays one View.Get per iteration — the documented contract.
func goodLoop(n int) {
	for i := 0; i < n; i++ {
		if t := view.Get(); t != nil {
			t.hits.Add(1)
		}
	}
}

// rawInLoop looks the registry up per iteration.
func rawInLoop(n int) {
	for i := 0; i < n; i++ {
		r := obs.Default() // want `raw obs.Default lookup inside a loop`
		_ = r
	}
}

// recorderInLoop does the same with the span recorder.
func recorderInLoop(n int) {
	for i := 0; i < n; i++ {
		rec := obs.ActiveRecorder() // want `raw obs.ActiveRecorder lookup inside a loop`
		_ = rec
	}
}

// helper hides a raw lookup behind a call.
func helper() *obs.Registry {
	return obs.Default()
}

// onceOff is a one-shot lookup outside any loop: silent.
func onceOff() *obs.Registry {
	return helper()
}

// loopCall runs helper's lookup once per iteration.
func loopCall(n int) {
	for i := 0; i < n; i++ {
		_ = helper() // want `call in a loop reaches a raw telemetry lookup \(obsdiscipline.helper -> obs.Default\)`
	}
}

// strayHandle constructs a handle outside any view build.
func strayHandle(r *obs.Registry) *obs.Counter {
	return r.Counter("stray_total", "stray") // want `Registry.Counter creates a metric handle outside`
}

// goodFlightLoop caches the ring handle once — the flight-recorder
// counterpart of the View contract.
func goodFlightLoop(n int) {
	fl := flight.Active()
	for i := 0; i < n; i++ {
		fl.Emit(flight.Event{Kind: flight.KindStaleness, A: int32(i), B: -1})
	}
}

// flightInLoop looks the ring up per emission.
func flightInLoop(n int) {
	for i := 0; i < n; i++ {
		flight.Active().Emit(flight.Event{Kind: flight.KindStaleness}) // want `raw flight.Active lookup inside a loop`
	}
}

// flightHelper hides the ring lookup behind a call.
func flightHelper() *flight.Ring {
	return flight.Active()
}

// flightLoopCall runs flightHelper's lookup once per iteration.
func flightLoopCall(n int) {
	for i := 0; i < n; i++ {
		_ = flightHelper() // want `call in a loop reaches a raw telemetry lookup \(obsdiscipline.flightHelper -> flight.Active\)`
	}
}
