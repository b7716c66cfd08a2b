package queueing

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/solve"
	"repro/internal/units"
)

func TestMM1Shape(t *testing.T) {
	c := MM1{Service: 6 * units.Nanosecond, ULimit: 0.95}
	if got := c.Delay(0); got != 0 {
		t.Fatalf("delay at 0 util = %v, want 0", got)
	}
	// At u=0.5, delay = S·u/(1−u) = S.
	if got := c.Delay(0.5); math.Abs(float64(got)-6) > 1e-9 {
		t.Fatalf("delay at 0.5 = %v, want 6ns", got)
	}
	if got := c.Delay(-1); got != 0 {
		t.Fatalf("negative util clamps to 0, got %v", got)
	}
	// Above the limit the delay clamps to the stable maximum.
	if c.Delay(0.99) != c.MaxStableDelay() {
		t.Fatal("delay above ULimit must clamp to MaxStableDelay")
	}
	want := 6.0 * 0.95 / 0.05
	if got := float64(c.MaxStableDelay()); math.Abs(got-want) > 1e-9 {
		t.Fatalf("MaxStableDelay = %v, want %v", got, want)
	}
}

func TestMM1DefaultLimit(t *testing.T) {
	c := MM1{Service: 1}
	if c.limit() != 0.95 {
		t.Fatalf("default limit = %v, want 0.95", c.limit())
	}
	c2 := MM1{Service: 1, ULimit: 1.5}
	if c2.limit() != 0.95 {
		t.Fatalf("out-of-range limit = %v, want 0.95", c2.limit())
	}
}

// Property: MM1 delay is nondecreasing in utilization — the physical
// invariant behind Fig. 7.
func TestMM1Monotone(t *testing.T) {
	c := MM1{Service: 6 * units.Nanosecond, ULimit: 0.95}
	f := func(a, b float64) bool {
		a, b = math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if a > b {
			a, b = b, a
		}
		return c.Delay(a) <= c.Delay(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeasuredInterpolation(t *testing.T) {
	m, err := NewMeasured(
		[]float64{0.1, 0.5, 0.9},
		[]units.Duration{0, 10, 50},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Delay(0.05); got != 0 {
		t.Fatalf("below range = %v, want clamp to first", got)
	}
	if got := m.Delay(0.95); got != 50 {
		t.Fatalf("above range = %v, want clamp to last", got)
	}
	if got := m.Delay(0.3); math.Abs(float64(got)-5) > 1e-9 {
		t.Fatalf("interp at 0.3 = %v, want 5", got)
	}
	if got := m.Delay(0.7); math.Abs(float64(got)-30) > 1e-9 {
		t.Fatalf("interp at 0.7 = %v, want 30", got)
	}
	if got := m.MaxStableDelay(); got != 50 {
		t.Fatalf("MaxStableDelay = %v, want 50", got)
	}
	if got := m.ULimit(); got != 0.9 {
		t.Fatalf("ULimit = %v, want 0.9", got)
	}
}

func TestMeasuredSortsAndDedups(t *testing.T) {
	// Unsorted input with a duplicate utilization that must average.
	m, err := NewMeasured(
		[]float64{0.8, 0.2, 0.8},
		[]units.Duration{40, 2, 20},
	)
	if err != nil {
		t.Fatal(err)
	}
	us, ds := m.Samples()
	if len(us) != 2 || us[0] != 0.2 || us[1] != 0.8 {
		t.Fatalf("us = %v", us)
	}
	if ds[1] != 30 {
		t.Fatalf("duplicate utilizations must average: got %v, want 30", ds[1])
	}
}

func TestMeasuredErrors(t *testing.T) {
	if _, err := NewMeasured(nil, nil); err == nil {
		t.Fatal("want error for empty")
	}
	if _, err := NewMeasured([]float64{0.5}, []units.Duration{1}); err == nil {
		t.Fatal("want error for single sample")
	}
	if _, err := NewMeasured([]float64{0.5, 1.5}, []units.Duration{1, 2}); err == nil {
		t.Fatal("want error for utilization > 1")
	}
	if _, err := NewMeasured([]float64{0.5, 0.5}, []units.Duration{1, 2}); err == nil {
		t.Fatal("want error when dedup leaves one point")
	}
}

func TestCompositeAverages(t *testing.T) {
	a := MM1{Service: 4 * units.Nanosecond, ULimit: 0.95}
	b := MM1{Service: 8 * units.Nanosecond, ULimit: 0.95}
	c, err := NewComposite(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// At u=0.5 the members give 4 and 8 → composite 6.
	if got := float64(c.Delay(0.5)); math.Abs(got-6) > 1e-9 {
		t.Fatalf("composite delay = %v, want 6", got)
	}
	wantMax := (4.0*19 + 8.0*19) / 2
	if got := float64(c.MaxStableDelay()); math.Abs(got-wantMax) > 1e-6 {
		t.Fatalf("composite max = %v, want %v", got, wantMax)
	}
}

func TestCompositeEmpty(t *testing.T) {
	if _, err := NewComposite(); err == nil {
		t.Fatal("want error for empty composite")
	}
}

func TestSystemUtilization(t *testing.T) {
	sys := System{Compulsory: 75, PeakBW: 40e9, Curve: MM1{Service: 6}}
	if got := sys.Utilization(20e9); got != 0.5 {
		t.Fatalf("util = %v, want 0.5", got)
	}
	if got := sys.Utilization(80e9); got != 1 {
		t.Fatalf("util clamps to 1, got %v", got)
	}
	if got := sys.Utilization(-1); got != 0 {
		t.Fatalf("negative demand clamps to 0, got %v", got)
	}
	zero := System{Compulsory: 75, PeakBW: 0, Curve: MM1{Service: 6}}
	if got := zero.Utilization(1); got != 1 {
		t.Fatalf("zero peak must read as saturated, got %v", got)
	}
}

// TestUtilizationNeverNaN: an infinite demand over an infinite peak
// (Inf/Inf) or a NaN demand reads as saturated, and a measured curve —
// which indexes its samples by utilization — answers with its maximum
// delay instead of panicking.
func TestUtilizationNeverNaN(t *testing.T) {
	m, err := NewMeasured([]float64{0, 0.5, 0.9}, []units.Duration{0, 5, 40})
	if err != nil {
		t.Fatal(err)
	}
	inf := units.BytesPerSecond(math.Inf(1))
	for _, tc := range []struct {
		name   string
		sys    System
		demand units.BytesPerSecond
	}{
		{"inf/inf", System{Compulsory: 75, PeakBW: inf, Curve: m}, inf},
		{"nan demand", System{Compulsory: 75, PeakBW: 40e9, Curve: m}, units.BytesPerSecond(math.NaN())},
	} {
		if got := tc.sys.Utilization(tc.demand); got != 1 {
			t.Errorf("%s: utilization = %v, want 1", tc.name, got)
		}
		if got := tc.sys.LoadedLatency(tc.demand); got != 75+40 {
			t.Errorf("%s: loaded latency = %v, want the max stable 115ns", tc.name, got)
		}
	}
}

// solvePoint runs the shared kernel on the system's bare scenario and
// reads back the operating point: the converged miss penalty, its
// queuing component, the demand and utilization there, and (on
// convergence only) the saturation verdict.
type solvePoint struct {
	MissPenalty, Queue units.Duration
	Demand             units.BytesPerSecond
	Utilization        float64
	Saturated          bool
}

func solveSystem(sys System, demand DemandFunc, opts solve.Options) (solvePoint, error) {
	out, err := solve.Solver{Options: opts}.Solve(context.Background(), sys.Scenario("queueing", demand))
	mp := units.Duration(out.X)
	d := demand(mp)
	pt := solvePoint{MissPenalty: mp, Queue: mp - sys.Compulsory, Demand: d, Utilization: sys.Utilization(d)}
	if out.Converged {
		// Saturated at or above the curve's stability limit: its own
		// ULimit when it declares one, 0.95 otherwise.
		limit := 0.95
		if l, ok := sys.Curve.(interface{ ULimit() float64 }); ok {
			limit = l.ULimit()
		}
		pt.Saturated = pt.Utilization >= limit-1e-9
	}
	return pt, err
}

func TestSolveConstantDemand(t *testing.T) {
	// With demand independent of MP the answer is closed-form.
	sys := System{
		Compulsory: 75 * units.Nanosecond,
		PeakBW:     units.GBpsOf(40),
		Curve:      MM1{Service: 6 * units.Nanosecond, ULimit: 0.95},
	}
	demand := func(units.Duration) units.BytesPerSecond { return units.GBpsOf(20) }
	sol, err := solveSystem(sys, demand, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantQueue := 6.0 * 0.5 / 0.5 // u = 0.5
	if math.Abs(float64(sol.Queue)-wantQueue) > 1e-3 {
		t.Fatalf("queue = %v, want %v", sol.Queue, wantQueue)
	}
	if math.Abs(float64(sol.MissPenalty)-(75+wantQueue)) > 1e-3 {
		t.Fatalf("MP = %v, want %v", sol.MissPenalty, 75+wantQueue)
	}
	if sol.Saturated {
		t.Fatal("50%% utilization must not be saturated")
	}
}

func TestSolveSaturated(t *testing.T) {
	sys := System{
		Compulsory: 75 * units.Nanosecond,
		PeakBW:     units.GBpsOf(40),
		Curve:      MM1{Service: 6 * units.Nanosecond, ULimit: 0.95},
	}
	demand := func(units.Duration) units.BytesPerSecond { return units.GBpsOf(400) }
	sol, err := solveSystem(sys, demand, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Saturated {
		t.Fatal("10x overload must be saturated")
	}
	maxMP := 75 + float64(sys.Curve.MaxStableDelay())
	if math.Abs(float64(sol.MissPenalty)-maxMP) > 0.01 {
		t.Fatalf("MP = %v, want ≈%v (max stable)", sol.MissPenalty, maxMP)
	}
}

// eq1Demand builds the real coupling: CPI from Eq. 1, demand from Eq. 4.
func eq1Demand(cpiCache, bf, mpi float64, bpi float64, cpsGHz float64, threads int) DemandFunc {
	return func(mp units.Duration) units.BytesPerSecond {
		cpi := cpiCache + mpi*float64(mp)*cpsGHz*bf
		return units.BytesPerSecond(bpi * cpsGHz * 1e9 / cpi * float64(threads))
	}
}

func TestSolveMatchesDampedOnShallowCurve(t *testing.T) {
	sys := System{
		Compulsory: 75 * units.Nanosecond,
		PeakBW:     units.GBpsOf(42),
		Curve:      MM1{Service: 6 * units.Nanosecond, ULimit: 0.95},
	}
	demand := eq1Demand(1.47, 0.41, 0.0067, 0.545, 2.5, 16)
	bis, err := solveSystem(sys, demand, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	damp, err := solveSystem(sys, demand, solve.Options{Method: solve.Damped})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(bis.MissPenalty)-float64(damp.MissPenalty)) > 0.01 {
		t.Fatalf("bisection %v vs damped %v", bis.MissPenalty, damp.MissPenalty)
	}
}

func TestSolveConvergesNearSaturation(t *testing.T) {
	// The HPC-class operating point that makes naive damped iteration
	// oscillate: demand within a few percent of peak.
	sys := System{
		Compulsory: 75 * units.Nanosecond,
		PeakBW:     units.GBpsOf(42),
		Curve:      MM1{Service: 6 * units.Nanosecond, ULimit: 0.95},
	}
	demand := eq1Demand(0.75, 0.07, 0.0267, 2.17, 2.5, 16)
	sol, err := solveSystem(sys, demand, solve.Options{})
	if err != nil {
		t.Fatalf("bisection must converge near saturation: %v", err)
	}
	if !sol.Saturated {
		t.Fatalf("HPC-class demand should saturate; util = %v", sol.Utilization)
	}
}

// Property: the solution is a true fixed point — the loaded latency at
// the solved demand equals the solved miss penalty.
func TestSolveFixedPointProperty(t *testing.T) {
	sys := System{
		Compulsory: 75 * units.Nanosecond,
		PeakBW:     units.GBpsOf(42),
		Curve:      MM1{Service: 6 * units.Nanosecond, ULimit: 0.95},
	}
	f := func(bfRaw, mpkiRaw float64) bool {
		bf := math.Abs(math.Mod(bfRaw, 1))
		mpki := math.Abs(math.Mod(mpkiRaw, 30))
		if mpki < 0.1 {
			mpki = 0.1
		}
		bpi := mpki / 1000 * 1.3 * 64
		demand := eq1Demand(1.0, bf, mpki/1000, bpi, 2.5, 16)
		sol, err := solveSystem(sys, demand, solve.Options{})
		if err != nil {
			return false
		}
		if sol.Saturated {
			return true // fixed point replaced by the stability cap
		}
		implied := sys.LoadedLatency(demand(sol.MissPenalty))
		return math.Abs(float64(implied)-float64(sol.MissPenalty)) < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveDegenerateCurve(t *testing.T) {
	// A curve with no queuing at all: the answer is the compulsory
	// latency immediately.
	sys := System{
		Compulsory: 75 * units.Nanosecond,
		PeakBW:     units.GBpsOf(42),
		Curve:      MM1{Service: 0, ULimit: 0.95},
	}
	sol, err := solveSystem(sys, func(units.Duration) units.BytesPerSecond { return units.GBpsOf(10) }, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.MissPenalty != sys.Compulsory {
		t.Fatalf("MP = %v, want compulsory", sol.MissPenalty)
	}
}

func TestSolveOptionsDefaults(t *testing.T) {
	// Defaulting lives in the solve kernel now; verify behaviorally that
	// zero and out-of-range options are replaced, not used literally — a
	// literal MaxIter of -1 would run zero iterations and always fail,
	// and a literal damping of 2 overshoots instead of converging.
	sys := System{Compulsory: 75, PeakBW: 40e9, Curve: MM1{Service: 6}}
	demand := func(units.Duration) units.BytesPerSecond { return 20e9 }
	if _, err := solveSystem(sys, demand, solve.Options{Tol: -1, MaxIter: -1, Damping: -1}); err != nil {
		t.Fatalf("zero/out-of-range options must default: %v", err)
	}
	if _, err := solveSystem(sys, demand, solve.Options{Method: solve.Damped, Damping: 2}); err != nil {
		t.Fatalf("out-of-range damping must default: %v", err)
	}
}

func TestMD1HalfOfMM1(t *testing.T) {
	mm := MM1{Service: 6 * units.Nanosecond, ULimit: 0.95}
	md := MD1{Service: 6 * units.Nanosecond, ULimit: 0.95}
	for _, u := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		if got, want := float64(md.Delay(u)), float64(mm.Delay(u))/2; math.Abs(got-want) > 1e-9 {
			t.Fatalf("M/D/1 at %v = %v, want half of M/M/1 (%v)", u, got, want)
		}
	}
	if md.Delay(0.99) != md.MaxStableDelay() {
		t.Fatal("M/D/1 must clamp at its limit")
	}
	if (MD1{Service: 1}).limit() != 0.95 {
		t.Fatal("default limit")
	}
}
