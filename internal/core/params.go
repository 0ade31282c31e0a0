// Package core implements the RUPS algorithm itself (paper §IV): seeking
// SYN points between two GSM-aware trajectories with a double-sliding
// cross-correlation check, and resolving the relative front-rear distance
// from the found SYN points, optionally aggregating several of them
// (§VI-C's simple and selective averages) to survive transient
// perturbations.
package core

import (
	"fmt"

	"rups/internal/trajectory"
)

// AggMode selects how multiple SYN-point distance estimates are combined.
type AggMode int

const (
	// SingleSYN uses only the best SYN point (the original RUPS of Fig 10).
	SingleSYN AggMode = iota
	// MeanAgg averages the estimates of all SYN points.
	MeanAgg
	// SelectiveAgg discards the minimum and maximum estimates and averages
	// the rest — the paper's most robust variant.
	SelectiveAgg
)

// String names the aggregation mode for evaluation output.
func (m AggMode) String() string {
	switch m {
	case SingleSYN:
		return "one SYN point"
	case MeanAgg:
		return "simple average"
	case SelectiveAgg:
		return "selective average"
	default:
		return "unknown"
	}
}

// Params are the tuning knobs of the RUPS algorithm, defaulting to the
// paper's implementation values.
type Params struct {
	// WindowMeters is the checking-window length (§VI-B uses 85 m; §V-A
	// speaks of ~100 m).
	WindowMeters int
	// WindowChannels is the checking-window width: the top-k channels by
	// mean RSSI (§VI-B: 45).
	WindowChannels int
	// Coherency is the trajectory-correlation threshold a window position
	// must exceed to count as a SYN point (§VI-B: 1.2; range of the
	// coefficient is [-2, 2]).
	Coherency float64
	// MaxContextMeters bounds the journey context kept and searched
	// (§V-A: 1000 m).
	MaxContextMeters int
	// NumSYN is how many SYN points (from distinct recent segments) feed
	// the aggregation (§VI-C uses five).
	NumSYN int
	// SegmentStrideMeters separates the recent segments used for multiple
	// SYN points.
	SegmentStrideMeters int
	// Aggregation combines the per-SYN estimates.
	Aggregation AggMode
	// MinWindowMeters enables the flexible short-context window of §V-C:
	// when a trajectory is shorter than WindowMeters the window shrinks
	// down to this floor instead of refusing to answer.
	MinWindowMeters int
	// ShortCoherency is the relaxed threshold used when the window had to
	// shrink below WindowMeters (§V-C: "combined with a smaller
	// threshold").
	ShortCoherency float64
	// NoColumnTerm drops the second term of Eq. 2 (the correlation of
	// per-location channel means), scoring windows by the mean per-channel
	// correlation alone. Ablation knob — the paper argues the term is
	// "essential"; see the ablations experiment.
	NoColumnTerm bool
	// SingleSided disables the second sweep of the double-sliding check
	// (only A's recent segment slides over B). Ablation knob.
	SingleSided bool
	// HeadingGateRad, when positive, rejects SYN candidates whose matched
	// marks disagree in heading by more than this angle. The geographical
	// trajectory is exchanged anyway (§IV-E resolves distance with it), so
	// the gate is free: two vehicles at the same spot on the same road
	// travel in (nearly) the same direction.
	HeadingGateRad float64
	// MaxRelDistM bounds the plausible relative distance between the
	// vehicles and hence the window positions the sliding check must
	// examine. The RDF problem is local by definition (§IV-A: "a vehicle
	// only cares about other vehicles in its vicinity", within DSRC range),
	// so alignments implying a larger separation are spurious; rejecting
	// them both hardens the search against chance correlations on sparsely
	// scanned contexts and shrinks its cost.
	MaxRelDistM int
}

// DefaultParams returns the paper's implementation parameters.
func DefaultParams() Params {
	return Params{
		WindowMeters:        85,
		WindowChannels:      45,
		Coherency:           1.2,
		MaxContextMeters:    1000,
		NumSYN:              5,
		SegmentStrideMeters: 20,
		Aggregation:         SelectiveAgg,
		MinWindowMeters:     10,
		ShortCoherency:      1.0,
		MaxRelDistM:         200,
		HeadingGateRad:      0.35, // ~20°
	}
}

// validate panics on nonsensical parameters; these are programming errors,
// not runtime conditions.
func (p Params) validate() {
	if p.WindowMeters <= 1 || p.WindowChannels <= 0 || p.MaxContextMeters <= 0 {
		panic(fmt.Sprintf("core: invalid params %+v", p))
	}
	if p.NumSYN <= 0 || p.SegmentStrideMeters <= 0 {
		panic(fmt.Sprintf("core: invalid SYN params %+v", p))
	}
	if p.MinWindowMeters <= 1 || p.MinWindowMeters > p.WindowMeters {
		panic(fmt.Sprintf("core: invalid window floor %+v", p))
	}
	if p.MaxRelDistM <= 0 {
		panic(fmt.Sprintf("core: invalid MaxRelDistM %+v", p))
	}
	if p.WindowMeters > cellRunMax || p.MaxContextMeters > cellRunMax {
		panic(fmt.Sprintf("core: window or context longer than %d m overflows the scan's int32 sums %+v", cellRunMax, p))
	}
}

// scanReach is how many trailing context metres a search can read: the
// deepest segment ends (NumSYN−1)·SegmentStrideMeters before the last
// mark, its window is at most WindowMeters long, and the locality bound
// slides the other side's window at most MaxRelDistM further back
// (Searcher.bounds). 365 m under DefaultParams.
func (p Params) scanReach() int {
	return p.WindowMeters + (p.NumSYN-1)*p.SegmentStrideMeters + p.MaxRelDistM
}

// cellRunMax is the longest run of power cells whose integer moments the
// scan keeps in int32: a run of n cells, each at most 254, has Σy² and
// Σxy at most n·254², below 2³¹ for n ≤ cellRunMax (33286). The bound
// covers the row prefix tables (n = the context, at most
// MaxContextMeters) and the channel kernel's int32 lanes and their total
// (n = the window, at most WindowMeters). It also keeps every Pearson
// bracket of the channel term, at most n²·254², exact in float64.
const cellRunMax = (1<<31 - 1) / (cellMax * cellMax)

// cellMax is the largest value of a present power cell.
const cellMax = trajectory.MissingCell - 1
