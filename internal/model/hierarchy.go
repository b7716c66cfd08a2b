package model

import (
	"errors"
	"fmt"

	"repro/internal/queueing"
	"repro/internal/units"
)

// Tier is one level of a multi-tier memory system (§VII): for example a
// fast DRAM cache in front of a large emerging-memory pool. Each tier has
// its own compulsory latency, deliverable bandwidth, and queuing curve.
type Tier struct {
	Name string
	// HitFraction is the fraction of LLC misses served by this tier.
	// Fractions across tiers must sum to 1.
	HitFraction float64
	Compulsory  units.Duration
	PeakBW      units.BytesPerSecond
	Queue       queueing.Curve
}

// TieredPlatform is a Platform whose memory is a hierarchy of Tiers;
// Eq. 5 replaces Eq. 1:
//
//	CPI_eff = CPI_cache + (MPI₁×MP₁ + MPI₂×MP₂ + …) × BF
type TieredPlatform struct {
	Name      string
	Threads   int
	Cores     int
	CoreSpeed units.Hertz
	LineSize  units.Bytes
	Tiers     []Tier
}

// Validate reports configuration errors. Failures wrap
// ErrInvalidPlatform for errors.Is classification.
func (tp TieredPlatform) Validate() error {
	if tp.Threads <= 0 || tp.Cores <= 0 || tp.CoreSpeed <= 0 || tp.LineSize <= 0 {
		return fmt.Errorf("%w: TieredPlatform core parameters must be positive", ErrInvalidPlatform)
	}
	if len(tp.Tiers) == 0 {
		return fmt.Errorf("%w: TieredPlatform needs at least one tier", ErrInvalidPlatform)
	}
	sum := 0.0
	for _, t := range tp.Tiers {
		if t.HitFraction < 0 || t.HitFraction > 1 {
			return fmt.Errorf("%w: tier %s: HitFraction out of [0,1]", ErrInvalidPlatform, t.Name)
		}
		if t.Compulsory <= 0 || t.PeakBW <= 0 || t.Queue == nil {
			return fmt.Errorf("%w: tier %s: incomplete configuration", ErrInvalidPlatform, t.Name)
		}
		sum += t.HitFraction
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("%w: tier hit fractions sum to %.3f, want 1", ErrInvalidPlatform, sum)
	}
	return nil
}

// PrefetchBFImprovement estimates the §VII observation that a better
// prefetcher lowers the blocking factor: given a fraction of misses
// converted from demand to timely prefetch, the exposed fraction of the
// miss penalty scales down proportionally.
func PrefetchBFImprovement(p Params, coverage float64) (Params, error) {
	if coverage < 0 || coverage > 1 {
		return Params{}, errors.New("model: prefetch coverage must be in [0,1]")
	}
	q := p
	q.Name = fmt.Sprintf("%s+pf%.0f%%", p.Name, coverage*100)
	q.BF = p.BF * (1 - coverage)
	return q, nil
}
