package model

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/units"
)

func tieredFrom(pl Platform, tiers ...Tier) TieredPlatform {
	return TieredPlatform{
		Name:      "test",
		Threads:   pl.Threads,
		Cores:     pl.Cores,
		CoreSpeed: pl.CoreSpeed,
		LineSize:  pl.LineSize,
		Tiers:     tiers,
	}
}

func TestTieredValidate(t *testing.T) {
	pl := testPlatform()
	good := tieredFrom(pl, Tier{Name: "DRAM", HitFraction: 1, Compulsory: pl.Compulsory, PeakBW: pl.PeakBW, Queue: pl.Queue})
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []TieredPlatform{
		tieredFrom(pl), // no tiers
		tieredFrom(pl, Tier{Name: "x", HitFraction: 0.5, Compulsory: 75, PeakBW: 1e9, Queue: pl.Queue}), // fractions don't sum to 1
		tieredFrom(pl, Tier{Name: "x", HitFraction: 1.5, Compulsory: 75, PeakBW: 1e9, Queue: pl.Queue}), // fraction out of range
		tieredFrom(pl, Tier{Name: "x", HitFraction: 1, Compulsory: 0, PeakBW: 1e9, Queue: pl.Queue}),    // bad latency
		tieredFrom(pl, Tier{Name: "x", HitFraction: 1, Compulsory: 75, PeakBW: 0, Queue: pl.Queue}),     // bad bandwidth
		tieredFrom(pl, Tier{Name: "x", HitFraction: 1, Compulsory: 75, PeakBW: 1e9, Queue: nil}),        // no curve
		{Tiers: []Tier{{Name: "x", HitFraction: 1, Compulsory: 75, PeakBW: 1e9, Queue: pl.Queue}}},      // bad core params
	}
	for i, tp := range bad {
		if err := tp.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestSingleTierMatchesEvaluate(t *testing.T) {
	// Eq. 5 with one tier must reduce to Eq. 1 + the single-tier solver.
	pl := testPlatform()
	tp := tieredFrom(pl, Tier{Name: "DRAM", HitFraction: 1, Compulsory: pl.Compulsory, PeakBW: pl.PeakBW, Queue: pl.Queue})
	for _, p := range allClasses() {
		single, err := Evaluate(context.Background(), p, pl)
		if err != nil {
			t.Fatal(err)
		}
		tiered, err := EvaluateTopology(context.Background(), p, tp.Topology())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(single.CPI-tiered.CPI) > 0.01*single.CPI {
			t.Fatalf("%s: single %v vs tiered %v", p.Name, single.CPI, tiered.CPI)
		}
	}
}

func TestTieredDegradesWithFarTier(t *testing.T) {
	pl := testPlatform()
	far := Tier{Name: "PMEM", Compulsory: pl.Compulsory * 3, PeakBW: pl.PeakBW, Queue: pl.Queue}
	near := Tier{Name: "DRAM", Compulsory: pl.Compulsory, PeakBW: pl.PeakBW, Queue: pl.Queue}
	p := enterpriseClass()

	cpiAt := func(hit float64) float64 {
		n, f := near, far
		n.HitFraction, f.HitFraction = hit, 1-hit
		op, err := EvaluateTopology(context.Background(), p, tieredFrom(pl, n, f).Topology())
		if err != nil {
			t.Fatal(err)
		}
		return op.CPI
	}
	// For a latency-sensitive class with ample bandwidth, more far-tier
	// traffic strictly hurts.
	prev := cpiAt(1.0)
	for _, hit := range []float64{0.8, 0.6, 0.4, 0.2, 0.0} {
		cur := cpiAt(hit)
		if cur < prev-1e-9 {
			t.Fatalf("CPI decreased as far-tier share grew: %v -> %v at hit %v", prev, cur, hit)
		}
		prev = cur
	}
}

func TestTieredEq5HandComputed(t *testing.T) {
	// Zero-queue curves make Eq. 5 closed-form:
	// CPI = CPI_cache + MPI×(f1×MP1 + f2×MP2)×BF.
	pl := testPlatform()
	zero := zeroQueue{}
	tp := tieredFrom(pl,
		Tier{Name: "near", HitFraction: 0.8, Compulsory: 75, PeakBW: pl.PeakBW, Queue: zero},
		Tier{Name: "far", HitFraction: 0.2, Compulsory: 225, PeakBW: pl.PeakBW, Queue: zero},
	)
	p := enterpriseClass()
	op, err := EvaluateTopology(context.Background(), p, tp.Topology())
	if err != nil {
		t.Fatal(err)
	}
	mp1 := units.Duration(75).Cycles(pl.CoreSpeed)
	mp2 := units.Duration(225).Cycles(pl.CoreSpeed)
	want := p.CPICache + p.MPI()*(0.8*float64(mp1)+0.2*float64(mp2))*p.BF
	if math.Abs(op.CPI-want) > 1e-6 {
		t.Fatalf("Eq.5 = %v, want %v", op.CPI, want)
	}
}

// zeroQueue is a Curve with no queuing at all.
type zeroQueue struct{}

func (zeroQueue) Delay(float64) units.Duration   { return 0 }
func (zeroQueue) MaxStableDelay() units.Duration { return 0 }

func TestTieredBandwidthBoundTier(t *testing.T) {
	// Starve the far tier's bandwidth: HPC-class traffic through it must
	// flag bandwidth-bound and raise CPI above the latency-only value.
	pl := testPlatform()
	tp := tieredFrom(pl,
		Tier{Name: "near", HitFraction: 0.5, Compulsory: pl.Compulsory, PeakBW: pl.PeakBW, Queue: pl.Queue},
		Tier{Name: "far", HitFraction: 0.5, Compulsory: pl.Compulsory * 3, PeakBW: units.GBpsOf(2), Queue: pl.Queue},
	)
	op, err := EvaluateTopology(context.Background(), hpcClass(), tp.Topology())
	if err != nil {
		t.Fatal(err)
	}
	if !op.BandwidthBound {
		t.Fatal("starved far tier must be bandwidth bound")
	}
	saturatedSeen := false
	for _, tier := range op.Tiers {
		if tier.Saturated {
			saturatedSeen = true
		}
	}
	if !saturatedSeen {
		t.Fatal("some tier must report saturation")
	}
}

func TestTieredRejectsBadInput(t *testing.T) {
	pl := testPlatform()
	tp := tieredFrom(pl, Tier{Name: "DRAM", HitFraction: 1, Compulsory: pl.Compulsory, PeakBW: pl.PeakBW, Queue: pl.Queue})
	if _, err := EvaluateTopology(context.Background(), Params{}, tp.Topology()); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("zero params: err = %v, want ErrInvalidParams", err)
	}
	empty := tieredFrom(pl)
	if err := empty.Validate(); !errors.Is(err, ErrInvalidPlatform) {
		t.Fatalf("tierless Validate: err = %v, want ErrInvalidPlatform", err)
	}
	if _, err := EvaluateTopology(context.Background(), bigDataClass(), empty.Topology()); !errors.Is(err, ErrInvalidPlatform) {
		t.Fatalf("tierless topology: err = %v, want ErrInvalidPlatform", err)
	}
}

func TestPrefetchBFImprovement(t *testing.T) {
	p := bigDataClass()
	q, err := PrefetchBFImprovement(p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q.BF-p.BF/2) > 1e-12 {
		t.Fatalf("BF = %v, want halved", q.BF)
	}
	if q.Name == p.Name {
		t.Fatal("name must change")
	}
	if _, err := PrefetchBFImprovement(p, 1.5); err == nil {
		t.Fatal("want error for coverage > 1")
	}
}
