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
// Each legacy shape keeps its historical numerics bit-for-bit: the
// degenerate one-tier topology solves in loaded-latency space exactly
// as the old single-platform evaluator did, fraction splits solve the
// Eq. 5 coupling in CPI space with per-tier terms, and the local/remote
// split applies Eq. 1 once to the traffic-weighted effective latency,
// matching the §VIII construction. The equivalence suite in
// topology_test.go pins all three to pre-refactor golden values.

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
	if top.Threads <= 0 || top.Cores <= 0 || top.CoreSpeed <= 0 || top.LineSize <= 0 {
		return fmt.Errorf("%w: Topology core parameters must be positive", ErrInvalidPlatform)
	}
	if len(top.Tiers) == 0 {
		return fmt.Errorf("%w: Topology needs at least one tier", ErrInvalidPlatform)
	}
	for i, t := range top.Tiers {
		if t.PeakBW <= 0 || t.Queue == nil {
			return fmt.Errorf("%w: tier %d (%s): incomplete configuration", ErrInvalidPlatform, i, t.Name)
		}
		if t.Efficiency < 0 || t.Efficiency > 1 {
			return fmt.Errorf("%w: tier %d (%s): Efficiency must be in (0,1] (0 = 1.0)", ErrInvalidPlatform, i, t.Name)
		}
	}
	switch top.Policy {
	case SplitFractions:
		sum := 0.0
		for i, t := range top.Tiers {
			if t.Share < 0 || t.Share > 1 {
				return fmt.Errorf("%w: tier %d (%s): Share out of [0,1]", ErrInvalidPlatform, i, t.Name)
			}
			if t.Compulsory <= 0 {
				return fmt.Errorf("%w: tier %d (%s): Compulsory must be positive", ErrInvalidPlatform, i, t.Name)
			}
			sum += t.Share
		}
		if sum < 0.999 || sum > 1.001 {
			return fmt.Errorf("%w: tier shares sum to %.3f, want 1", ErrInvalidPlatform, sum)
		}
	case SplitInterleave:
		sum := 0.0
		for i, t := range top.Tiers {
			if t.Share < 0 {
				return fmt.Errorf("%w: tier %d (%s): interleave weight must be non-negative", ErrInvalidPlatform, i, t.Name)
			}
			if t.Compulsory <= 0 {
				return fmt.Errorf("%w: tier %d (%s): Compulsory must be positive", ErrInvalidPlatform, i, t.Name)
			}
			sum += t.Share
		}
		if sum <= 0 {
			return fmt.Errorf("%w: interleave weights sum to zero", ErrInvalidPlatform)
		}
	case SplitLocalRemote:
		if len(top.Tiers) != 2 {
			return fmt.Errorf("%w: local-remote topology needs exactly 2 tiers (local memory, interconnect), got %d",
				ErrInvalidPlatform, len(top.Tiers))
		}
		if top.Tiers[0].Compulsory <= 0 {
			return fmt.Errorf("%w: local tier Compulsory must be positive", ErrInvalidPlatform)
		}
		if top.Tiers[1].Compulsory < 0 {
			return fmt.Errorf("%w: interconnect Compulsory (remote adder) must be non-negative", ErrInvalidPlatform)
		}
		if top.RemoteFraction < 0 || top.RemoteFraction > 1 {
			return fmt.Errorf("%w: RemoteFraction must be in [0,1]", ErrInvalidPlatform)
		}
	default:
		return fmt.Errorf("%w: unknown split policy %v", ErrInvalidPlatform, top.Policy)
	}
	return nil
}

// shares returns each tier's fraction of the miss population under the
// fraction policies. SplitFractions passes Share through untouched (so
// legacy tiered hit fractions keep their exact bits); SplitInterleave
// normalizes the weights.
func (top Topology) shares() []float64 {
	sh := make([]float64, len(top.Tiers))
	if top.Policy == SplitInterleave {
		sum := 0.0
		for _, t := range top.Tiers {
			sum += t.Share
		}
		for i, t := range top.Tiers {
			sh[i] = t.Share / sum
		}
		return sh
	}
	for i, t := range top.Tiers {
		sh[i] = t.Share
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
// pair: policy-specific scenario construction over shared tier systems,
// plus the conversion from a kernel Outcome back to a TopologyPoint.
type topoCase struct {
	solver solve.Solver
	sc     solve.Scenario
	point  func(solve.Outcome) (TopologyPoint, error)
}

// newTopoCase validates and compiles one evaluation. The unknown
// follows the shape: a one-tier fraction topology solves in
// loaded-latency space (the flat model's natural coordinate), multi-tier
// fraction splits and the local/remote split solve the Eq. 5 coupling
// in CPI space.
func newTopoCase(p Params, top Topology) (*topoCase, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := top.Validate(); err != nil {
		return nil, err
	}
	c := &topoCase{}
	switch {
	case top.Policy == SplitLocalRemote:
		c.buildLocalRemote(p, top)
	case len(top.Tiers) == 1:
		c.buildFlat(p, top)
	default:
		c.buildFractions(p, top)
	}
	return c, nil
}

// buildFlat compiles the degenerate one-tier topology: the classic
// Eq. 1 + Eq. 4 fixed point in loaded-latency space, with the §VI.C.1
// saturation handoff. Bit-identical to the historical single-platform
// evaluator (tier efficiency 1).
func (c *topoCase) buildFlat(p Params, top Topology) {
	t := top.Tiers[0]
	sust := t.SustainedBW()
	sys := queueing.System{Compulsory: t.Compulsory, PeakBW: sust, Curve: t.Queue}
	demand := func(mp units.Duration) units.BytesPerSecond {
		cpi := p.CPIEffAt(mp, top.CoreSpeed)
		return p.Demand(cpi, top.CoreSpeed, top.LineSize) * units.BytesPerSecond(top.Threads)
	}

	var bwErr error // deferred BandwidthLimitedCPI failure from a LimitFunc
	sc := sys.Scenario(p.Name+"@"+top.Name, demand)
	sc.CPIOf = func(mp float64) float64 {
		return p.CPIEffAt(units.Duration(mp), top.CoreSpeed)
	}
	sc.Limits = []solve.LimitFunc{
		// Saturation clamp: active when the converged utilization reaches
		// the curve's stability limit. Bound is false — saturation alone
		// does not mark the point bandwidth bound unless the Eq. 4 CPI
		// actually wins the comparison.
		func(mp, _ float64) (solve.Limit, bool) {
			u := sys.Utilization(demand(units.Duration(mp)))
			if !sys.Saturated(u) {
				return solve.Limit{}, false
			}
			availPerThread := sust / units.BytesPerSecond(top.Threads)
			bwCPI, err := p.BandwidthLimitedCPI(availPerThread, top.CoreSpeed, top.LineSize)
			if err != nil {
				bwErr = err
				return solve.Limit{}, false
			}
			return solve.Limit{Resource: "memory", CPI: bwCPI}, true
		},
		// Demand-exceeds-peak check at the (possibly clamped) final CPI:
		// marks the regime bandwidth limited without changing the CPI.
		func(_, cpi float64) (solve.Limit, bool) {
			d := p.Demand(cpi, top.CoreSpeed, top.LineSize) * units.BytesPerSecond(top.Threads)
			if d <= sust {
				return solve.Limit{}, false
			}
			return solve.Limit{Resource: "memory", Bound: true}, true
		},
	}
	c.sc = sc
	c.solver = solve.Solver{}
	c.point = func(out solve.Outcome) (TopologyPoint, error) {
		if bwErr != nil {
			return TopologyPoint{Iterations: out.Iterations}, bwErr
		}
		mp := units.Duration(out.X)
		tpt := TopologyTierPoint{Name: t.Name, MissPenalty: mp}
		op := TopologyPoint{
			CPI:         out.CPI,
			EffectiveMP: mp,
			Limiter:     out.Limiter,
			Iterations:  out.Iterations,
			// BandwidthBound: either the Eq. 4 clamp raised the CPI above
			// the latency-limited value, or demand at the final CPI
			// exceeds the sustained bandwidth.
			BandwidthBound: out.CPI > p.CPIEffAt(mp, top.CoreSpeed),
		}
		// Demand, delivered bandwidth, and utilization reported at the
		// final CPI.
		tpt.Demand = p.Demand(op.CPI, top.CoreSpeed, top.LineSize) * units.BytesPerSecond(top.Threads)
		if tpt.Demand > sust {
			op.BandwidthBound = true
			tpt.Delivered = sust
		} else {
			tpt.Delivered = tpt.Demand
		}
		tpt.Utilization = sys.Utilization(tpt.Demand)
		tpt.Saturated = sys.Saturated(tpt.Utilization)
		op.Tiers = []TopologyTierPoint{tpt}
		return op, nil
	}
}

// buildFractions compiles a multi-tier fraction (or interleave) split:
// the Eq. 5 fixed point in CPI space, each tier's loaded latency implied
// by its share of the traffic. Bit-identical to the historical tiered
// evaluator when shares are the tier hit fractions (efficiency 1).
func (c *topoCase) buildFractions(p Params, top Topology) {
	sh := top.shares()
	systems := make([]queueing.System, len(top.Tiers))
	susts := make([]units.BytesPerSecond, len(top.Tiers))
	for i, t := range top.Tiers {
		susts[i] = t.SustainedBW()
		systems[i] = queueing.System{Compulsory: t.Compulsory, PeakBW: susts[i], Curve: t.Queue}
	}

	// eq5At evaluates Eq. 5 with each tier's loaded latency implied by
	// the demand at candidate CPI c, and reports the per-tier state.
	eq5At := func(cpi0 float64) (float64, []TopologyTierPoint) {
		demandTotal := p.Demand(cpi0, top.CoreSpeed, top.LineSize) * units.BytesPerSecond(top.Threads)
		cpi := p.CPICache
		tiers := make([]TopologyTierPoint, len(top.Tiers))
		for i, t := range top.Tiers {
			d := demandTotal * units.BytesPerSecond(sh[i])
			mp := systems[i].LoadedLatency(d)
			cpi += p.MPI() * sh[i] * float64(mp.Cycles(top.CoreSpeed)) * p.BF
			tiers[i] = TopologyTierPoint{
				Name:        t.Name,
				MissPenalty: mp,
				Demand:      d,
				Utilization: systems[i].Utilization(d),
			}
		}
		return cpi, tiers
	}

	// Bracket: CPI at zero queuing ≤ fixed point ≤ CPI at max stable
	// queuing on every tier.
	lo := p.CPICache
	for i, t := range top.Tiers {
		lo += p.MPI() * sh[i] * float64(t.Compulsory.Cycles(top.CoreSpeed)) * p.BF
	}
	hi := p.CPICache
	for i, t := range top.Tiers {
		maxMP := t.Compulsory + systems[i].Curve.MaxStableDelay()
		hi += p.MPI() * sh[i] * float64(maxMP.Cycles(top.CoreSpeed)) * p.BF
	}

	// The scenario solves in CPI space; the converged CPI is Eq. 5
	// re-evaluated at the final midpoint, which also yields the per-tier
	// state the limits then annotate.
	var tiers []TopologyTierPoint
	sc := solve.Scenario{
		Name:    p.Name + "@" + top.Name,
		Unknown: "cpi",
		Lo:      lo,
		Hi:      hi,
		F: func(cpi0 float64) float64 {
			got, _ := eq5At(cpi0)
			return got
		},
		CPIOf: func(cpi0 float64) float64 {
			got, ts := eq5At(cpi0)
			tiers = ts
			return got
		},
	}
	// Bandwidth-limit check per tier: a tier whose share of the traffic
	// saturates its channels bounds the whole pipeline. As in the flat
	// model, the final CPI is the worse of the latency-limited CPI and
	// each tier's bandwidth-limited CPI (Eq. 4 with BW set to the tier's
	// sustained bandwidth for its share). The checks chain: a clamp
	// applied by one tier raises the CPI — and so lowers the demand —
	// the next tier's saturation test sees.
	for i, t := range top.Tiers {
		i, t := i, t
		sc.Limits = append(sc.Limits, func(_, cpi float64) (solve.Limit, bool) {
			demandTotal := p.Demand(cpi, top.CoreSpeed, top.LineSize) * units.BytesPerSecond(top.Threads)
			d := demandTotal * units.BytesPerSecond(sh[i])
			if float64(d) < float64(susts[i])*0.999 {
				return solve.Limit{}, false
			}
			tiers[i].Saturated = true
			share := p.BytesPerInstruction(top.LineSize) * sh[i]
			bwCPI := share * float64(top.CoreSpeed) / (float64(susts[i]) / float64(top.Threads))
			return solve.Limit{Resource: t.Name, CPI: bwCPI, Bound: true}, true
		})
	}

	c.sc = sc
	c.solver = solve.Solver{Options: solve.Options{Tol: 1e-9, MaxIter: 200}}
	c.point = func(out solve.Outcome) (TopologyPoint, error) {
		eff := 0.0
		for i := range tiers {
			tiers[i].Delivered = minBW(tiers[i].Demand, susts[i])
			eff += sh[i] * float64(tiers[i].MissPenalty)
		}
		return TopologyPoint{
			CPI:            out.CPI,
			EffectiveMP:    units.Duration(eff),
			Tiers:          tiers,
			BandwidthBound: out.Regime == solve.BandwidthLimited,
			Limiter:        out.Limiter,
			Iterations:     out.Iterations,
		}, nil
	}
}

// buildLocalRemote compiles the NUMA-style split: tier 0 (local memory)
// serves the full per-socket demand — by symmetry a socket's channels
// carry its local traffic plus its peers' inbound remote traffic —
// while the RemoteFraction share additionally traverses tier 1 (the
// interconnect). Eq. 1 applies once to the traffic-weighted effective
// latency, matching the §VIII construction bit-for-bit (efficiency 1).
func (c *topoCase) buildLocalRemote(p Params, top Topology) {
	t0, t1 := top.Tiers[0], top.Tiers[1]
	sust0, sust1 := t0.SustainedBW(), t1.SustainedBW()
	local := queueing.System{Compulsory: t0.Compulsory, PeakBW: sust0, Curve: t0.Queue}
	link := queueing.System{Compulsory: t1.Compulsory, PeakBW: sust1, Curve: t1.Queue}
	rf := top.RemoteFraction

	at := func(cpi float64) (float64, [2]TopologyTierPoint, units.Duration) {
		perSocket := p.Demand(cpi, top.CoreSpeed, top.LineSize) * units.BytesPerSecond(top.Threads)
		localDemand := perSocket // local (1−rf) + inbound remote rf
		linkDemand := perSocket * units.BytesPerSecond(rf)

		localMP := local.LoadedLatency(localDemand)
		// A remote miss pays the remote tier's loaded latency plus the
		// interconnect hop (with the link's own queuing).
		remoteMP := localMP + link.LoadedLatency(linkDemand)

		eff := units.Duration((1-rf)*float64(localMP) + rf*float64(remoteMP))
		got := p.CPIEffAt(eff, top.CoreSpeed)
		return got, [2]TopologyTierPoint{
			{Name: t0.Name, MissPenalty: localMP, Demand: localDemand, Utilization: local.Utilization(localDemand)},
			{Name: t1.Name, MissPenalty: remoteMP, Demand: linkDemand, Utilization: link.Utilization(linkDemand)},
		}, eff
	}

	// Bracket the fixed point between the zero-queue and max-queue CPIs.
	minMP := units.Duration((1-rf)*float64(t0.Compulsory) + rf*float64(t0.Compulsory+t1.Compulsory))
	maxMP := minMP + t0.Queue.MaxStableDelay() + units.Duration(rf*float64(t1.Queue.MaxStableDelay()))
	lo, hi := p.CPIEffAt(minMP, top.CoreSpeed), p.CPIEffAt(maxMP, top.CoreSpeed)

	// The scenario solves in CPI space; the per-tier state at the
	// converged CPI feeds the bandwidth limits, which use the demands
	// the solver saw (not recomputed at a clamped CPI — the checks ask
	// whether the operating point itself saturates).
	var state [2]TopologyTierPoint
	var effMP units.Duration
	sc := solve.Scenario{
		Name:    p.Name + "@" + top.Name,
		Unknown: "cpi",
		Lo:      lo,
		Hi:      hi,
		F: func(cpi float64) float64 {
			got, _, _ := at(cpi)
			return got
		},
		CPIOf: func(cpi float64) float64 {
			got, st, eff := at(cpi)
			state = st
			effMP = eff
			return got
		},
		Limits: []solve.LimitFunc{
			// Bandwidth limits: local memory first, then the link for the
			// remote share.
			func(_, _ float64) (solve.Limit, bool) {
				if float64(state[0].Demand) < float64(sust0)*0.999 {
					return solve.Limit{}, false
				}
				state[0].Saturated = true
				bwCPI := p.BytesPerInstruction(top.LineSize) * float64(top.CoreSpeed) /
					(float64(sust0) / float64(top.Threads))
				return solve.Limit{Resource: t0.Name, CPI: bwCPI, Bound: true}, true
			},
			func(_, _ float64) (solve.Limit, bool) {
				if rf <= 0 || float64(state[1].Demand) < float64(sust1)*0.999 {
					return solve.Limit{}, false
				}
				state[1].Saturated = true
				bwCPI := p.BytesPerInstruction(top.LineSize) * rf * float64(top.CoreSpeed) /
					(float64(sust1) / float64(top.Threads))
				return solve.Limit{Resource: t1.Name, CPI: bwCPI, Bound: true}, true
			},
		},
	}

	c.sc = sc
	c.solver = solve.Solver{Options: solve.Options{Tol: 1e-9, MaxIter: 200}}
	c.point = func(out solve.Outcome) (TopologyPoint, error) {
		state[0].Delivered = minBW(state[0].Demand, sust0)
		state[1].Delivered = minBW(state[1].Demand, sust1)
		return TopologyPoint{
			CPI:            out.CPI,
			EffectiveMP:    effMP,
			Tiers:          state[:],
			BandwidthBound: out.Regime == solve.BandwidthLimited,
			Limiter:        out.Limiter,
			Iterations:     out.Iterations,
		}, nil
	}
}

// result converts a kernel outcome into the case's TopologyPoint: the
// one place EvaluateTopology and EvaluateTopologyAll build a point. A
// platform extreme enough to overflow float64 (a 1e308 ns compulsory
// latency, a 1e300 GHz core) solves to an Inf CPI or NaN demand without
// any solver error, so a non-finite field is rejected here as an
// invalid platform rather than returned.
func (c *topoCase) result(out solve.Outcome) (TopologyPoint, error) {
	pt, err := c.point(out)
	if err != nil {
		return pt, err
	}
	bad := func(f float64) bool { return math.IsInf(f, 0) || math.IsNaN(f) }
	nonFinite := bad(pt.CPI) || bad(float64(pt.EffectiveMP))
	for _, t := range pt.Tiers {
		nonFinite = nonFinite || bad(float64(t.MissPenalty)) || bad(float64(t.Demand)) ||
			bad(float64(t.Delivered)) || bad(t.Utilization)
	}
	if nonFinite {
		return TopologyPoint{Iterations: pt.Iterations}, fmt.Errorf(
			"%w: %s has a non-finite operating point (CPI %g, effective miss penalty %g ns)",
			ErrInvalidPlatform, c.sc.Name, pt.CPI, float64(pt.EffectiveMP))
	}
	return pt, nil
}

func minBW(a, b units.BytesPerSecond) units.BytesPerSecond {
	if a < b {
		return a
	}
	return b
}

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
	out, err := c.solver.Solve(ctx, c.sc)
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
	outs, errs := solveEach(ctx, cases, scs)
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

// solveEach runs the per-case solvers over the kernel's shared worker
// pool, preserving per-scenario errors. Cases may carry different
// solver options; the batch is grouped by options so each group runs
// through one SolveEach call.
func solveEach(ctx context.Context, cases []*topoCase, scs []solve.Scenario) ([]solve.Outcome, []error) {
	outs := make([]solve.Outcome, len(scs))
	errs := make([]error, len(scs))
	// Group indices by solver options (flat cases use defaults, CPI-space
	// cases the tight tolerance) to keep each group one batch call.
	groups := map[solve.Options][]int{}
	for k, c := range cases {
		groups[c.solver.Options] = append(groups[c.solver.Options], k)
	}
	for opts, idx := range groups {
		sub := make([]solve.Scenario, len(idx))
		for n, k := range idx {
			sub[n] = scs[k]
		}
		subOuts, subErrs := solve.Solver{Options: opts}.SolveEach(ctx, sub)
		for n, k := range idx {
			outs[k] = subOuts[n]
			errs[k] = subErrs[n]
		}
	}
	return outs, errs
}
