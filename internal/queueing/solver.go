package queueing

import (
	"math"

	"repro/internal/solve"
	"repro/internal/units"
)

// System describes the memory supply side for the fixed-point solve:
// an unloaded (compulsory) latency, a deliverable peak bandwidth, and a
// queuing curve relating utilization to added delay.
type System struct {
	Compulsory units.Duration       // unloaded memory latency
	PeakBW     units.BytesPerSecond // maximum deliverable bandwidth (post-efficiency)
	Curve      Curve                // queuing delay vs utilization
}

// LoadedLatency returns compulsory latency plus queuing delay at the given
// demand bandwidth.
func (s System) LoadedLatency(demand units.BytesPerSecond) units.Duration {
	return s.Compulsory + s.Curve.Delay(s.Utilization(demand))
}

// Utilization returns demand/peak clamped to [0, 1]. A NaN ratio (an
// Inf/Inf or Inf×0 upstream) reads as saturated, so no curve is ever
// asked for the delay at NaN.
func (s System) Utilization(demand units.BytesPerSecond) float64 {
	if s.PeakBW <= 0 {
		return 1
	}
	u := float64(demand) / float64(s.PeakBW)
	if u < 0 {
		return 0
	}
	if u > 1 || math.IsNaN(u) {
		return 1
	}
	return u
}

// DemandFunc maps a miss penalty (loaded latency) to the bandwidth the
// workload would demand at that penalty. In the paper's model this is
// Eq. 4 evaluated at CPI_eff(MP) from Eq. 1: higher penalty → higher CPI →
// lower demand, which is what makes the fixed point well behaved.
type DemandFunc func(mp units.Duration) units.BytesPerSecond

// Scenario composes the system and demand function into the solve
// kernel's form: the unknown is the miss penalty in nanoseconds,
// bracketed between the compulsory latency (no queuing) and the
// latency at the curve's maximum stable delay, with
// F(mp) = LoadedLatency(demand(mp)). F(mp) − mp is non-negative at the
// left end (queuing delay cannot be negative), non-positive at the right
// end (delay is capped at the stable maximum), and decreasing for any
// demand that falls as the miss penalty rises — which Eq. 1 + Eq. 4
// guarantee — so bisection always brackets the fixed point. It is the
// single-resource loop in loaded-latency space, without a CPI
// conversion or bandwidth limits; the model's evaluators solve the
// Eq. 5 form in CPI space instead (internal/model/topology.go).
func (s System) Scenario(name string, demand DemandFunc) solve.Scenario {
	return solve.Scenario{
		Name:    name,
		Unknown: "miss-penalty-ns",
		Lo:      float64(s.Compulsory),
		Hi:      float64(s.Compulsory + s.Curve.MaxStableDelay()),
		F: func(mp float64) float64 {
			return float64(s.LoadedLatency(demand(units.Duration(mp))))
		},
	}
}
