// Package solve is the single fixed-point kernel behind every evaluator
// in the analytic model. The paper's §VI.C.1 loop — demand → utilization
// → queuing delay → loaded latency → miss penalty → CPI — appears in
// four guises (single platform, tiered Eq. 5, multi-socket NUMA, and
// per-phase evaluation), but each is the same mathematical object: a
// scalar unknown x with a monotone non-increasing re-estimation map
// F(x), bracketed on [Lo, Hi], followed by a bandwidth-limited regime
// check (Eq. 4) against every saturated supply resource.
//
// This package owns that object once. A Scenario couples the supply
// side and the demand adapter into (Lo, Hi, F, CPIOf, Limits); the
// Solver owns the iteration (bisection by default, the paper's damped
// fixed-point iteration as an ablation mode, or damped-with-bisection
// fallback), the saturation clamp, and the latency-vs-bandwidth-limited
// regime choice. Every solve returns an Outcome with full telemetry —
// iterations, final residual, winning regime, fallback flag — so the
// experiment pipeline can record how each published number converged.
//
// The package deliberately depends on nothing in the repo: adapters in
// internal/queueing and internal/model compose their supply curves and
// Eq. 1/4/5 demand functions into plain float64 closures, which keeps
// the kernel reusable, benchmarkable, and bit-stable across refactors.
package solve

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
)

// ErrNoConvergence is returned when the iteration exhausts its budget
// without meeting the tolerance. For a monotone F on a finite bracket
// this is unreachable in practice: bisection halves the bracket every
// step, so the width test fires after at most ~60 iterations.
var ErrNoConvergence = errors.New("solve: fixed-point iteration did not converge")

// Method selects the iteration strategy.
type Method int

const (
	// Bisect finds the root of F(x)−x by interval bisection — the
	// production path. It converges unconditionally for non-increasing F
	// where damped iteration can oscillate on the steep part of a
	// queuing curve near saturation.
	Bisect Method = iota
	// Damped is the direct damped fixed-point iteration the paper
	// describes ("an iterative calculation to find a stable solution"),
	// kept for the solver ablation (DESIGN.md §5).
	Damped
	// Auto tries Damped first and falls back to Bisect when it fails,
	// setting Outcome.FellBack.
	Auto
)

// String names the method for telemetry.
func (m Method) String() string {
	switch m {
	case Bisect:
		return "bisect"
	case Damped:
		return "damped"
	case Auto:
		return "auto"
	}
	return "unknown"
}

// Regime records which side of the model chose the final CPI.
type Regime int

const (
	// LatencyLimited: the fixed point of the queuing loop set the CPI
	// (Eq. 1 at the converged loaded latency).
	LatencyLimited Regime = iota
	// BandwidthLimited: a saturated resource's Eq. 4 CPI took over, or a
	// resource reported saturation at the operating point.
	BandwidthLimited
)

// String names the regime for telemetry.
func (r Regime) String() string {
	if r == BandwidthLimited {
		return "bandwidth-limited"
	}
	return "latency-limited"
}

// Limit is one bandwidth-limited candidate produced by a Scenario's
// supply side: the Eq. 4 CPI of a saturated resource.
type Limit struct {
	// Resource names the saturated supply resource (a DRAM channel
	// group, a memory tier, an interconnect link).
	Resource string
	// CPI is the Eq. 4 bandwidth-limited CPI; it replaces the running
	// CPI when larger (the model takes the worse of the two).
	CPI float64
	// Bound marks the outcome bandwidth-limited even when CPI does not
	// win the clamp (a saturated resource bounds the pipeline whether or
	// not its Eq. 4 value exceeds the latency-limited CPI).
	Bound bool
}

// LimitFunc lazily evaluates one resource's saturation check at the
// converged unknown x and the running CPI. Laziness matters: limits are
// applied in order, and a clamp applied by an earlier resource lowers
// the demand later resources see (a higher CPI means a slower core),
// exactly as the pre-unification evaluators chained their checks. The
// second return reports whether the limit is active.
type LimitFunc func(x, cpi float64) (Limit, bool)

// Scenario is one fixed-point problem handed to the Solver: the supply
// side and per-thread demand adapter of an evaluator, composed into a
// scalar unknown. The unknown is whatever coordinate makes the map
// monotone and the bracket natural — every model topology solves in
// CPI space (the Eq. 5 coupling runs through the scalar CPI), while
// queueing.System.Scenario offers the bare loaded-latency (ns) form.
type Scenario struct {
	// Name labels the scenario in telemetry (workload @ platform).
	Name string
	// Unknown documents the unknown's coordinate ("miss-penalty-ns" or
	// "cpi") for telemetry readers.
	Unknown string
	// Lo and Hi bracket the unknown: Lo is the unloaded (zero-queue)
	// value, Hi the value at every resource's maximum stable queuing
	// delay — the saturation clamp that keeps the queue model inside its
	// validated range.
	Lo, Hi float64
	// F re-estimates the unknown implied by candidate x: the demand at
	// x (Eq. 4 at Eq. 1's CPI), pushed through the supply side's
	// queuing curves. F must be non-increasing in x, which Eq. 1 + Eq. 4
	// guarantee (a larger penalty means a slower core means less
	// demand means shorter queues).
	F func(x float64) float64
	// CPIOf converts a converged unknown into the latency-limited CPI
	// (identity for CPI-space scenarios). Optional: when nil the
	// Outcome carries no CPI or regime information.
	CPIOf func(x float64) float64
	// Limits are the supply side's bandwidth-limit checks, applied in
	// order against the running CPI. Optional.
	Limits []LimitFunc
}

// Options tunes the Solver. The zero value matches the historical
// queueing-solver defaults.
type Options struct {
	// Tol is the convergence tolerance on the unknown (ns or CPI);
	// <= 0 means 1e-4.
	Tol float64
	// MaxIter bounds the iteration count; <= 0 means 10 000.
	MaxIter int
	// Method selects the iteration strategy (default Bisect).
	Method Method
	// Damping in (0,1] is the fraction of the new estimate blended in
	// per Damped step; out of range means 0.5.
	Damping float64
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-4
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10_000
	}
	if o.Damping <= 0 || o.Damping > 1 {
		o.Damping = 0.5
	}
	return o
}

// Outcome is the solved operating point plus full solver telemetry.
type Outcome struct {
	// Scenario and Unknown echo the scenario's labels.
	Scenario string
	Unknown  string
	// X is the converged unknown (a loaded latency in ns, or a CPI).
	X float64
	// CPI is the final effective CPI after the regime choice (zero when
	// the scenario has no CPIOf).
	CPI float64
	// Regime records whether the latency fixed point or a saturated
	// resource's Eq. 4 bound set the CPI.
	Regime Regime
	// Limiter names the resource whose bandwidth limit set the CPI, if
	// any.
	Limiter string
	// Residual is |F(X) − X| at the returned X — how self-consistent
	// the reported operating point is.
	Residual float64
	// Iterations counts F evaluations by the winning method.
	Iterations int
	// Converged reports whether the tolerance was met (false only on
	// ErrNoConvergence).
	Converged bool
	// Method is the iteration strategy that produced X.
	Method Method
	// FellBack is set under Auto when damped iteration failed and
	// bisection finished the job.
	FellBack bool
}

// Solver owns the fixed-point iteration, the saturation clamp, and the
// latency-vs-bandwidth-limited regime choice. The zero value is a
// bisection solver with the historical defaults.
type Solver struct {
	Options Options
}

// Solve runs one scenario to its Outcome. A recorder planted in ctx
// (WithRecorder) observes the outcome whether or not the solve
// converged; the error is ErrNoConvergence exactly when it did not.
// A cancelled or expired context returns its error before any F
// evaluation, which is what lets batch callers cut off abandoned grids
// between points.
func (s Solver) Solve(ctx context.Context, sc Scenario) (Outcome, error) {
	if err := ctx.Err(); err != nil {
		return Outcome{Scenario: sc.Name, Unknown: sc.Unknown}, err
	}
	o := s.Options.withDefaults()
	var out Outcome
	var err error
	switch o.Method {
	case Damped:
		out, err = damp(sc, o)
	case Auto:
		out, err = damp(sc, o)
		if err != nil {
			out, err = bisect(sc, o)
			out.FellBack = true
		}
	default:
		out, err = bisect(sc, o)
	}
	out.Scenario = sc.Name
	out.Unknown = sc.Unknown
	if err == nil && sc.CPIOf != nil {
		out.CPI = sc.CPIOf(out.X)
		out.Regime = LatencyLimited
		for _, lf := range sc.Limits {
			l, active := lf(out.X, out.CPI)
			if !active {
				continue
			}
			if l.Bound {
				out.Regime = BandwidthLimited
			}
			if l.CPI > out.CPI {
				out.CPI = l.CPI
				out.Limiter = l.Resource
				out.Regime = BandwidthLimited
			}
		}
	}
	record(ctx, out)
	return out, err
}

// bisect finds the root of F(x)−x on [lo, hi]. F(x)−x is non-negative
// at lo (queuing delay cannot be negative), non-positive at hi (delay
// is capped at the stable maximum), and decreasing for any demand
// function that falls as the penalty rises.
func bisect(sc Scenario, o Options) (Outcome, error) {
	lo, hi := sc.Lo, sc.Hi
	// Degenerate bracket (no queuing at all): the answer is the left
	// end.
	if hi <= lo {
		fx := sc.F(lo)
		return Outcome{
			X:          lo,
			Residual:   math.Abs(fx - lo),
			Iterations: 1,
			Converged:  true,
			Method:     Bisect,
		}, nil
	}
	var out Outcome
	out.Method = Bisect
	for i := 0; i < o.MaxIter; i++ {
		mid := (lo + hi) / 2
		f := sc.F(mid) - mid
		out.X = mid
		out.Residual = math.Abs(f)
		out.Iterations = i + 1
		// A midpoint equal to an end means lo and hi are adjacent
		// floats: the root is pinned to float64 precision, which an
		// absolute Tol can undercut at extreme magnitudes.
		if math.Abs(f) < o.Tol || hi-lo < o.Tol || mid == lo || mid == hi {
			out.Converged = true
			return out, nil
		}
		if f > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return out, ErrNoConvergence
}

// damp is the direct damped fixed-point iteration from Lo: it converges
// on shallow parts of a queuing curve but can oscillate near
// saturation. On convergence the returned X is the re-estimated value
// F(x) of the final step, matching the historical damped solver.
func damp(sc Scenario, o Options) (Outcome, error) {
	x := sc.Lo
	var out Outcome
	out.Method = Damped
	for i := 0; i < o.MaxIter; i++ {
		fx := sc.F(x)
		out.X = x
		out.Residual = math.Abs(fx - x)
		out.Iterations = i + 1
		if math.Abs(fx-x) < o.Tol {
			out.X = fx
			out.Converged = true
			return out, nil
		}
		x += o.Damping * (fx - x)
	}
	return out, ErrNoConvergence
}

// SolveAll solves a batch of scenarios concurrently over a bounded
// worker pool — the point-grid path used by sweeps and the experiment
// engine. Outcomes are returned in input order; the error is the first
// failure by input index (with unsolved scenarios left zero after a
// context cancellation). Telemetry recording is safe for concurrent
// use because recorders are required to be.
func (s Solver) SolveAll(ctx context.Context, scs []Scenario) ([]Outcome, error) {
	outs, errs := s.SolveEach(ctx, scs)
	for _, err := range errs {
		if err != nil {
			return outs, err
		}
	}
	return outs, nil
}

// SolveEach is SolveAll with per-scenario error attribution: every
// scenario's error is returned at its input index instead of collapsing
// the batch to the first failure. Grid callers use this to report which
// (class, platform) cell failed rather than an anonymous batch error.
func (s Solver) SolveEach(ctx context.Context, scs []Scenario) ([]Outcome, []error) {
	outs := make([]Outcome, len(scs))
	errs := make([]error, len(scs))
	if len(scs) == 0 {
		return outs, errs
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(scs) {
		workers = len(scs)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				outs[i], errs[i] = s.Solve(ctx, scs[i])
			}
		}()
	}
feed:
	for i := range scs {
		select {
		case next <- i:
		case <-ctx.Done():
			// Stop feeding promptly: unfed scenarios report the
			// cancellation without ever reaching a worker.
			for j := i; j < len(scs); j++ {
				errs[j] = ctx.Err()
			}
			break feed
		}
	}
	close(next)
	wg.Wait()
	return outs, errs
}
