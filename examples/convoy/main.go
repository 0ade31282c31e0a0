// Convoy: the driving-safety application from the paper's introduction. A
// three-vehicle convoy tracks front-rear distances with RUPS; when the
// resolved distance to the vehicle ahead shrinks faster than a safe
// threshold (hard braking ahead), the rear vehicles raise an alert —
// without line of sight, GPS, or infrastructure.
package main

import (
	"fmt"
	"math"

	"rups/internal/city"
	"rups/internal/core"
	"rups/internal/gsm"
	"rups/internal/mobility"
	"rups/internal/noise"
	"rups/internal/scanner"
	"rups/internal/sim"
)

func main() {
	const seed = 1234

	// City, radio field, and one 8-lane road through downtown.
	c := city.Generate(city.DefaultConfig(seed))
	field := gsm.NewField(noise.Hash(seed, 1), gsm.GenerateTowers(noise.Hash(seed, 2), c.Bounds(), c), c)
	road := c.RoadsOfClass(city.EightLaneUrban)[0]

	// Three vehicles in the same lane: A leads and brakes at traffic
	// lights; B follows A; C follows B.
	base := mobility.DriveConfig{
		Road: road, Lane: 1, StartS: 40, Distance: 1200,
		StopEveryM: 450, StopSeed: seed,
	}
	cfgA := base
	cfgA.Seed = noise.Hash(seed, 10)
	truthA := mobility.Drive(cfgA)
	cfgB := base
	cfgB.Seed = noise.Hash(seed, 11)
	truthB := mobility.Follow(cfgB, truthA, 30)
	cfgC := base
	cfgC.Seed = noise.Hash(seed, 12)
	truthC := mobility.Follow(cfgC, truthB, 28)

	// Each vehicle runs the full on-board pipeline independently.
	fmt.Println("running on-board pipelines (3 vehicles, 4 front radios each)...")
	vA := sim.PipelineVehicle(truthA, field, 4, scanner.FrontPanel, noise.Hash(seed, 20))
	vB := sim.PipelineVehicle(truthB, field, 4, scanner.FrontPanel, noise.Hash(seed, 21))
	vC := sim.PipelineVehicle(truthC, field, 4, scanner.FrontPanel, noise.Hash(seed, 22))

	params := core.DefaultParams()
	const (
		queryEvery = 1.5 // seconds
		alertGap   = 20.0
		alertRate  = -2.5 // m/s closing speed that triggers an alert
	)

	type tracker struct {
		name        string
		rear, front *sim.VehicleRun
		last        float64
		lastT       float64
		has         bool
	}
	pairs := []*tracker{
		{name: "B→A", rear: vB, front: vA},
		{name: "C→B", rear: vC, front: vB},
	}

	t0 := truthA.States[0].T
	end := t0 + truthC.Duration()
	fmt.Printf("%8s  %-6s %9s %9s %9s  %s\n", "t (s)", "pair", "truth", "RUPS", "closing", "alert")
	alerts := 0
	for t := t0 + 50; t <= end; t += queryEvery {
		for _, p := range pairs {
			est, ok := core.Resolve(p.rear.Aware.PrefixUntil(t), p.front.Aware.PrefixUntil(t), params)
			if !ok {
				continue
			}
			truth := mobility.TrueGap(p.front.Truth, p.rear.Truth, t)
			closing := 0.0
			alert := ""
			if p.has && t > p.lastT {
				closing = (est.Distance - p.last) / (t - p.lastT)
				if est.Distance < alertGap && closing < alertRate {
					alert = "HARD-BRAKE ALERT: vehicle ahead closing fast"
					alerts++
				}
			}
			p.last, p.lastT, p.has = est.Distance, t, true
			if alert != "" || math.Mod(t-t0, 15) < queryEvery {
				fmt.Printf("%8.1f  %-6s %8.1fm %8.1fm %8.1fm/s  %s\n",
					t-t0, p.name, truth, est.Distance, closing, alert)
			}
		}
	}
	fmt.Printf("\nconvoy run complete: %d hard-brake alerts raised\n", alerts)
}
