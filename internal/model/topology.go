package model

import (
	"context"
	"fmt"
	"math"

	"repro/internal/queueing"
	"repro/internal/solve"
	"repro/internal/units"
)

// This file is the unified N-tier memory evaluator. The paper's three
// platform families — the flat §VI.C baseline (Eq. 1/4), the tiered
// §VII hierarchy (Eq. 5), and the §VIII multi-socket extension — are the
// same mathematical object seen through different traffic splits: a set
// of memory tiers, each with its own unloaded latency, deliverable
// bandwidth, and queuing curve, loaded by some share of the workload's
// miss traffic. A Topology captures that object once and
// EvaluateTopology is its one evaluator: Evaluate is a thin flat adapter
// over it, TieredPlatform and NUMAPlatform convert to a Topology, and
// every new memory-tier scenario (die-stacked HBM, CXL-style far memory,
// sustained-vs-peak bandwidth derating) is a Topology value rather than
// another evaluator.
//
// Every shape is one scenario, the Eq. 5 fixed point in CPI space: each
// tier carries a share of the miss traffic, and that share both loads
// the tier and weighs its loaded latency. The flat platform is one tier
// with share 1; the §VIII local/remote machine is two tiers with shares
// (1, RemoteFraction), since every miss pays the local memory and the
// remote share also pays the interconnect. topology_test.go pins each
// shape to hex-float golden values.

// SplitPolicy selects how LLC miss traffic is distributed across the
// tiers of a Topology.
type SplitPolicy int

const (
	// SplitFractions routes each tier its configured Share of the miss
	// population — the capacity-threshold split of the §VII tiered
	// hierarchy, where a tier's share is the hit rate of the capacity in
	// front of it. Shares must sum to 1.
	SplitFractions SplitPolicy = iota
	// SplitInterleave routes traffic by fixed-ratio interleaving: each
	// tier's Share is a non-negative weight (pages striped 3:1, say),
	// normalized to fractions. This is the page-placement knob of
	// hyperscale tiering studies (Mahar et al., arxiv 2303.08396).
	SplitInterleave
	// SplitLocalRemote is the NUMA-style split: tier 0 is the local
	// memory serving ALL traffic (local plus, by symmetry, inbound
	// remote), tier 1 is an interconnect traversed serially by the
	// RemoteFraction share on top of tier 0's loaded latency.
	SplitLocalRemote
)

// String names the policy for telemetry and canonical hashing.
func (sp SplitPolicy) String() string {
	switch sp {
	case SplitFractions:
		return "fractions"
	case SplitInterleave:
		return "interleave"
	case SplitLocalRemote:
		return "local-remote"
	}
	return fmt.Sprintf("policy(%d)", int(sp))
}

// MemTier is one memory tier of a Topology: a supply resource with its
// own unloaded latency, bandwidth, and queuing behaviour.
type MemTier struct {
	Name string
	// Share is this tier's slice of the miss traffic: a fraction in
	// [0,1] under SplitFractions (summing to 1 across tiers) or a
	// non-negative interleave weight under SplitInterleave. Ignored
	// under SplitLocalRemote, where Topology.RemoteFraction splits.
	Share float64
	// Compulsory is the tier's unloaded latency. For the interconnect
	// tier of a local/remote topology it is the remote hop adder and
	// may be zero.
	Compulsory units.Duration
	// PeakBW is the tier's theoretical peak bandwidth.
	PeakBW units.BytesPerSecond
	// Efficiency derates PeakBW to the bandwidth the tier actually
	// sustains — real channels deliver ~70–90% of peak under realistic
	// access streams, and modeling against peak understates queuing
	// delay and saturates too late. In (0,1]; 0 means 1.0 (no
	// derating, the legacy evaluators' behaviour).
	Efficiency float64
	// Queue maps the tier's bandwidth utilization (normalized to
	// sustained bandwidth) to queuing delay.
	Queue queueing.Curve
}

// SustainedBW returns the bandwidth the tier delivers after the
// efficiency derating. Efficiency 0 or 1 returns PeakBW bit-exactly.
func (t MemTier) SustainedBW() units.BytesPerSecond {
	if t.Efficiency == 0 || t.Efficiency == 1 {
		return t.PeakBW
	}
	return units.BytesPerSecond(float64(t.PeakBW) * t.Efficiency)
}

// Topology is an N-tier memory system under one processor: the unified
// supply side of the model. The zero policy is SplitFractions.
type Topology struct {
	Name      string
	Threads   int
	Cores     int
	CoreSpeed units.Hertz
	LineSize  units.Bytes
	// Policy distributes miss traffic across Tiers.
	Policy SplitPolicy
	// RemoteFraction is the share of misses that traverse the
	// interconnect under SplitLocalRemote (ignored otherwise).
	RemoteFraction float64
	Tiers          []MemTier
}

// Validate reports configuration errors. Failures wrap
// ErrInvalidPlatform for errors.Is classification.
func (top Topology) Validate() error {
	if !finite(float64(top.CoreSpeed), float64(top.LineSize), top.RemoteFraction) {
		return fmt.Errorf("%w: Topology fields must be finite", ErrInvalidPlatform)
	}
	if top.Threads <= 0 || top.Cores <= 0 || top.CoreSpeed <= 0 || top.LineSize <= 0 {
		return fmt.Errorf("%w: Topology core parameters must be positive", ErrInvalidPlatform)
	}
	if len(top.Tiers) == 0 {
		return fmt.Errorf("%w: Topology needs at least one tier", ErrInvalidPlatform)
	}
	// Under SplitLocalRemote the shares are ignored and tier 1, the
	// interconnect, may add zero latency.
	lr := top.Policy == SplitLocalRemote
	sum := 0.0
	for i, t := range top.Tiers {
		var problem string
		switch {
		case !finite(t.Share, float64(t.Compulsory), float64(t.PeakBW), t.Efficiency):
			problem = "fields must be finite"
		case t.PeakBW <= 0 || t.Queue == nil:
			problem = "incomplete configuration"
		case t.Efficiency < 0 || t.Efficiency > 1:
			problem = "Efficiency must be in (0,1] (0 = 1.0)"
		case t.Compulsory < 0 || (t.Compulsory == 0 && !(lr && i == 1)):
			problem = "Compulsory must be positive"
		case !lr && t.Share < 0:
			problem = "Share must be non-negative"
		case top.Policy == SplitFractions && t.Share > 1:
			problem = "Share out of [0,1]"
		}
		if problem != "" {
			return fmt.Errorf("%w: tier %d (%s): %s", ErrInvalidPlatform, i, t.Name, problem)
		}
		sum += t.Share
	}
	switch top.Policy {
	case SplitFractions:
		if sum < 0.999 || sum > 1.001 {
			return fmt.Errorf("%w: tier shares sum to %.3f, want 1", ErrInvalidPlatform, sum)
		}
	case SplitInterleave:
		if sum <= 0 {
			return fmt.Errorf("%w: interleave weights sum to zero", ErrInvalidPlatform)
		}
	case SplitLocalRemote:
		if len(top.Tiers) != 2 {
			return fmt.Errorf("%w: local-remote topology needs exactly 2 tiers (local memory, interconnect), got %d",
				ErrInvalidPlatform, len(top.Tiers))
		}
		if top.RemoteFraction < 0 || top.RemoteFraction > 1 {
			return fmt.Errorf("%w: RemoteFraction must be in [0,1]", ErrInvalidPlatform)
		}
	default:
		return fmt.Errorf("%w: unknown split policy %v", ErrInvalidPlatform, top.Policy)
	}
	return nil
}

// shares returns each tier's share sᵢ of the miss traffic: the demand
// the tier carries and the weight of its loaded latency in Eq. 5.
// SplitFractions passes Share through untouched, SplitInterleave
// normalizes the weights, and SplitLocalRemote is (1, RemoteFraction):
// every miss loads the local memory, the remote share also the link.
func (top Topology) shares() []float64 {
	sh := make([]float64, len(top.Tiers))
	switch top.Policy {
	case SplitLocalRemote:
		sh[0], sh[1] = 1, top.RemoteFraction
	case SplitInterleave:
		sum := 0.0
		for _, t := range top.Tiers {
			sum += t.Share
		}
		for i, t := range top.Tiers {
			sh[i] = t.Share / sum
		}
	default:
		for i, t := range top.Tiers {
			sh[i] = t.Share
		}
	}
	return sh
}

// WithTierEfficiency returns a copy with every tier's efficiency set to
// eff — the one-knob sustained-vs-peak sweep.
func (top Topology) WithTierEfficiency(eff float64) Topology {
	tiers := make([]MemTier, len(top.Tiers))
	copy(tiers, top.Tiers)
	for i := range tiers {
		tiers[i].Efficiency = eff
	}
	top.Tiers = tiers
	top.Name = fmt.Sprintf("%s@eff=%.0f%%", top.Name, eff*100)
	return top
}

// Topology converts the flat platform to its one-tier topology.
func (pl Platform) Topology() Topology {
	return Topology{
		Name:      pl.Name,
		Threads:   pl.Threads,
		Cores:     pl.Cores,
		CoreSpeed: pl.CoreSpeed,
		LineSize:  pl.LineSize,
		Policy:    SplitFractions,
		Tiers: []MemTier{{
			Name:       "mem",
			Share:      1,
			Compulsory: pl.Compulsory,
			PeakBW:     pl.PeakBW,
			Queue:      pl.Queue,
		}},
	}
}

// Topology converts the tiered platform to its fraction-split topology.
func (tp TieredPlatform) Topology() Topology {
	top := Topology{
		Name:      tp.Name,
		Threads:   tp.Threads,
		Cores:     tp.Cores,
		CoreSpeed: tp.CoreSpeed,
		LineSize:  tp.LineSize,
		Policy:    SplitFractions,
	}
	for _, t := range tp.Tiers {
		top.Tiers = append(top.Tiers, MemTier{
			Name:       t.Name,
			Share:      t.HitFraction,
			Compulsory: t.Compulsory,
			PeakBW:     t.PeakBW,
			Queue:      t.Queue,
		})
	}
	return top
}

// Topology converts the NUMA platform to its local/remote topology (one
// socket describes the symmetric machine).
func (np NUMAPlatform) Topology() Topology {
	return Topology{
		Name:           np.Name,
		Threads:        np.ThreadsPerSocket,
		Cores:          np.CoresPerSocket,
		CoreSpeed:      np.CoreSpeed,
		LineSize:       np.LineSize,
		Policy:         SplitLocalRemote,
		RemoteFraction: np.RemoteFraction,
		Tiers: []MemTier{
			{Name: "dram", Compulsory: np.LocalCompulsory, PeakBW: np.SocketPeakBW, Queue: np.Queue},
			{Name: "link", Compulsory: np.RemoteAdder, PeakBW: np.LinkPeakBW, Queue: np.Queue},
		},
	}
}

// TopologyTierPoint is one tier's share of a solved topology point.
type TopologyTierPoint struct {
	Name string
	// MissPenalty is the tier's loaded latency. Under SplitLocalRemote
	// tier 1 reports the full remote-path latency (local tier's loaded
	// latency plus the loaded interconnect hop), since remote misses
	// traverse both resources serially.
	MissPenalty units.Duration
	// Demand is the bandwidth loading this tier's channels.
	Demand units.BytesPerSecond
	// Delivered is min(Demand, sustained bandwidth).
	Delivered units.BytesPerSecond
	// Utilization is Demand over the tier's sustained bandwidth.
	Utilization float64
	// Saturated reports the tier's bandwidth-limit check fired.
	Saturated bool
}

// TopologyPoint is the stable operating point of a workload class on an
// N-tier topology.
type TopologyPoint struct {
	CPI float64
	// EffectiveMP is the traffic-weighted miss penalty across tiers.
	EffectiveMP units.Duration
	Tiers       []TopologyTierPoint
	// BandwidthBound reports a saturated tier set (or bounded) the CPI.
	BandwidthBound bool
	// Limiter names the tier whose Eq. 4 bound won the regime choice,
	// if any.
	Limiter    string
	Iterations int
}

// topoCase is the solve-kernel adapter for one (workload, topology)
// pair: the Eq. 5 scenario over the topology's tier systems, plus the
// conversion from a kernel Outcome back to a TopologyPoint.
type topoCase struct {
	p     Params
	top   Topology
	sh    []float64           // each tier's share of the miss traffic
	sys   []queueing.System   // each tier's supply side at sustained bandwidth
	tiers []TopologyTierPoint // per-tier state at the converged CPI
	sc    solve.Scenario
}

// newTopoCase validates and compiles one evaluation: the Eq. 5 fixed
// point in CPI space,
//
//	CPI = CPI_cache + MPI × BF × Σ sᵢ × MPᵢ,
//
// where tier i carries the share sᵢ of the miss traffic and MPᵢ is its
// loaded latency at that demand. Every shape is this one scenario: a
// flat platform is one tier with share 1, and a local/remote machine is
// two tiers with shares (1, RemoteFraction), since every miss pays the
// local memory and the remote share also pays the interconnect.
func newTopoCase(p Params, top Topology) (*topoCase, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := top.Validate(); err != nil {
		return nil, err
	}
	n := len(top.Tiers)
	c := &topoCase{
		p:     p,
		top:   top,
		sh:    top.shares(),
		sys:   make([]queueing.System, n),
		tiers: make([]TopologyTierPoint, n),
	}
	// Bracket: CPI at zero queuing ≤ fixed point ≤ CPI at max stable
	// queuing on every tier.
	lo, hi := p.CPICache, p.CPICache
	for i, t := range top.Tiers {
		c.sys[i] = queueing.System{Compulsory: t.Compulsory, PeakBW: t.SustainedBW(), Curve: t.Queue}
		lo += c.term(i, t.Compulsory)
		hi += c.term(i, t.Compulsory+t.Queue.MaxStableDelay())
	}
	c.sc = solve.Scenario{
		Name:    p.Name + "@" + top.Name,
		Unknown: "cpi",
		Lo:      lo,
		Hi:      hi,
		F:       func(cpi float64) float64 { return c.eq5(cpi, nil) },
		CPIOf:   func(cpi float64) float64 { return c.eq5(cpi, c.tiers) },
		Limits:  make([]solve.LimitFunc, n),
	}
	for i := range top.Tiers {
		c.sc.Limits[i] = c.limit(i)
	}
	return c, nil
}

// demand is Eq. 4 for all threads at CPI cpi.
func (c *topoCase) demand(cpi float64) units.BytesPerSecond {
	return c.p.Demand(cpi, c.top.CoreSpeed, c.top.LineSize) * units.BytesPerSecond(c.top.Threads)
}

// term is tier i's Eq. 5 contribution MPI × sᵢ × MP × BF at miss
// penalty mp.
func (c *topoCase) term(i int, mp units.Duration) float64 {
	return c.p.MPI() * c.sh[i] * float64(mp.Cycles(c.top.CoreSpeed)) * c.p.BF
}

// eq5 evaluates Eq. 5 with each tier's loaded latency implied by its
// share of the demand at candidate CPI cpi0. A non-nil out receives the
// per-tier state.
func (c *topoCase) eq5(cpi0 float64, out []TopologyTierPoint) float64 {
	total := c.demand(cpi0)
	cpi := c.p.CPICache
	for i := range c.sys {
		d := total * units.BytesPerSecond(c.sh[i])
		mp := c.sys[i].LoadedLatency(d)
		cpi += c.term(i, mp)
		if out != nil {
			out[i] = TopologyTierPoint{
				Name:        c.top.Tiers[i].Name,
				MissPenalty: mp,
				Demand:      d,
				Utilization: c.sys[i].Utilization(d),
			}
		}
	}
	return cpi
}

// limit is tier i's bandwidth-limit check: a tier whose share of the
// traffic saturates its channels bounds the whole pipeline, and the
// final CPI is the worse of the latency-limited CPI and the tier's
// Eq. 4 CPI at its sustained bandwidth for its share. The checks chain:
// a clamp applied by one tier raises the CPI — and so lowers the
// demand — the next tier's saturation test sees.
func (c *topoCase) limit(i int) solve.LimitFunc {
	return func(_, cpi float64) (solve.Limit, bool) {
		sust := float64(c.sys[i].PeakBW)
		if float64(c.demand(cpi)*units.BytesPerSecond(c.sh[i])) < sust*0.999 {
			return solve.Limit{}, false
		}
		c.tiers[i].Saturated = true
		share := c.p.BytesPerInstruction(c.top.LineSize) * c.sh[i]
		bwCPI := share * float64(c.top.CoreSpeed) / (sust / float64(c.top.Threads))
		return solve.Limit{Resource: c.top.Tiers[i].Name, CPI: bwCPI, Bound: true}, true
	}
}

// result reads a kernel outcome back as the case's TopologyPoint: the
// one place EvaluateTopology and EvaluateTopologyAll build a point.
// Demand and utilization are reported at the latency fixed point,
// before any Eq. 4 clamp. Under SplitLocalRemote tier 1 reports the
// full remote latency (local plus interconnect) and the effective
// penalty weighs local and remote misses (1−rf, rf); otherwise it is
// Σ sᵢ × MPᵢ. A platform extreme enough to overflow float64 (a 1e308 ns
// compulsory latency) solves to an Inf CPI or NaN demand without any
// solver error, so a non-finite field is rejected here as an invalid
// platform rather than returned.
func (c *topoCase) result(out solve.Outcome) (TopologyPoint, error) {
	eff := 0.0
	for i := range c.tiers {
		c.tiers[i].Delivered = min(c.tiers[i].Demand, c.sys[i].PeakBW)
		eff += c.sh[i] * float64(c.tiers[i].MissPenalty)
	}
	if c.top.Policy == SplitLocalRemote {
		rf := c.top.RemoteFraction
		local := c.tiers[0].MissPenalty
		c.tiers[1].MissPenalty += local
		eff = (1-rf)*float64(local) + rf*float64(c.tiers[1].MissPenalty)
	}
	ok := finite(out.CPI, eff)
	for _, t := range c.tiers {
		ok = ok && finite(float64(t.MissPenalty), float64(t.Demand), float64(t.Delivered), t.Utilization)
	}
	if !ok {
		return TopologyPoint{Iterations: out.Iterations}, fmt.Errorf(
			"%w: %s has a non-finite operating point (CPI %g, effective miss penalty %g ns)",
			ErrInvalidPlatform, c.sc.Name, out.CPI, eff)
	}
	return TopologyPoint{
		CPI:            out.CPI,
		EffectiveMP:    units.Duration(eff),
		Tiers:          c.tiers,
		BandwidthBound: out.Regime == solve.BandwidthLimited,
		Limiter:        out.Limiter,
		Iterations:     out.Iterations,
	}, nil
}

// finite reports whether every value is neither infinite nor NaN.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// topoSolver solves every topology case: bisection on the CPI to 1e-9.
var topoSolver = solve.Solver{Options: solve.Options{Tol: 1e-9, MaxIter: 200}}

// EvaluateTopology finds the stable operating point of workload class p
// on an N-tier memory topology — the single evaluator behind Evaluate
// and every tiered and multi-socket platform. A solve.Recorder planted
// in ctx observes the solver telemetry and cancellation is honored
// before any model evaluation.
func EvaluateTopology(ctx context.Context, p Params, top Topology) (TopologyPoint, error) {
	c, err := newTopoCase(p, top)
	if err != nil {
		return TopologyPoint{}, err
	}
	out, err := topoSolver.Solve(ctx, c.sc)
	if err != nil {
		return TopologyPoint{Iterations: out.Iterations}, err
	}
	return c.result(out)
}

// EvaluateTopologyAll evaluates the full cross product of classes ×
// topologies through the kernel's batch API — the point-grid path used
// by sweeps and the experiment engine. Points are returned as
// [class][topology]; the error is the first failure in that order,
// wrapped with the failing (class, topology) pair so batch callers can
// report which grid cell broke.
func EvaluateTopologyAll(ctx context.Context, classes []Params, tops []Topology) ([][]TopologyPoint, error) {
	cases := make([]*topoCase, 0, len(classes)*len(tops))
	scs := make([]solve.Scenario, 0, len(classes)*len(tops))
	for i, p := range classes {
		for j, top := range tops {
			// Abandoned grids (a server-side deadline, a disconnected
			// sweep client) stop between points rather than validating
			// and queueing the rest of the cross product.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			c, err := newTopoCase(p, top)
			if err != nil {
				return nil, gridErr(i, p, j, top.Name, err)
			}
			cases = append(cases, c)
			scs = append(scs, c.sc)
		}
	}
	outs, errs := topoSolver.SolveEach(ctx, scs)
	grid := make([][]TopologyPoint, len(classes))
	for i, p := range classes {
		grid[i] = make([]TopologyPoint, len(tops))
		for j, top := range tops {
			k := i*len(tops) + j
			if errs[k] != nil {
				return nil, gridErr(i, p, j, top.Name, errs[k])
			}
			pt, err := cases[k].result(outs[k])
			if err != nil {
				return nil, gridErr(i, p, j, top.Name, err)
			}
			grid[i][j] = pt
		}
	}
	return grid, nil
}

// gridErr wraps a batch failure with the indices and names of the grid
// cell that produced it, so wire-level batch errors are actionable.
func gridErr(i int, p Params, j int, platform string, err error) error {
	return fmt.Errorf("class %d (%s) × platform %d (%s): %w", i, p.Name, j, platform, err)
}
