package model

import (
	"context"
	"testing"

	"repro/internal/queueing"
	"repro/internal/units"
)

// FuzzEvaluateTopology drives EvaluateTopology over the tier count
// (1–3), the split policy, the shares, each tier's compulsory latency
// and peak bandwidth, the core clock, the class parameters and the
// queuing-curve kind. Two properties hold for every input: the solve
// never panics, and a nil error means every TopologyPoint field is
// finite. The seeds include two inputs that once panicked inside a
// measured curve on a NaN utilization: an overflowing clock and peak
// (Inf/Inf), and a huge finite clock with a zero-share tier (Inf×0).
func FuzzEvaluateTopology(f *testing.F) {
	// tiers, policy, curve, shares, compulsory ns, peak GB/s, GHz,
	// CPI_cache, BF, MPKI, WBR.
	f.Add(uint8(1), uint8(0), uint8(0), 1.0, 0.0, 0.0, 75.0, 0.0, 0.0, 42.0, 0.0, 0.0, 2.5, 0.91, 0.21, 5.5, 0.92)
	f.Add(uint8(3), uint8(0), uint8(1), 0.6, 0.3, 0.1, 50.0, 80.0, 350.0, 120.0, 40.0, 8.0, 2.5, 1.47, 0.41, 6.7, 0.27)
	f.Add(uint8(2), uint8(1), uint8(0), 3.0, 1.0, 0.0, 80.0, 250.0, 0.0, 40.0, 16.0, 0.0, 2.5, 0.75, 0.07, 26.7, 0.27)
	f.Add(uint8(2), uint8(2), uint8(2), 0.0, 0.3, 0.0, 75.0, 60.0, 0.0, 42.0, 25.0, 0.0, 2.5, 0.91, 0.21, 5.5, 0.92)
	// POST /v1/evaluate {"ghz":1e300,"peak_gbps":1e300} with a measured
	// queue: the clock and the peak overflow to +Inf.
	f.Add(uint8(1), uint8(0), uint8(2), 1.0, 0.0, 0.0, 75.0, 0.0, 0.0, 1e300, 0.0, 0.0, 1e300, 0.91, 0.21, 5.5, 0.92)
	// POST /v1/evaluate/topology, class hpc, {"ghz":1e299}, a share-0
	// tier and measured curves: every input is finite.
	f.Add(uint8(2), uint8(0), uint8(2), 1.0, 0.0, 0.0, 75.0, 300.0, 0.0, 42.0, 10.0, 0.0, 1e299, 0.75, 0.07, 26.7, 0.27)

	measured, err := queueing.NewMeasured([]float64{0, 0.9}, []units.Duration{0, 40})
	if err != nil {
		f.Fatal(err)
	}
	curves := []queueing.Curve{
		queueing.MM1{Service: 6, ULimit: 0.95},
		queueing.MD1{Service: 6, ULimit: 0.95},
		measured,
	}
	f.Fuzz(func(t *testing.T, tiers, policy, curve uint8, s0, s1, s2, c0, c1, c2, b0, b1, b2, ghz, cpiCache, bf, mpki, wbr float64) {
		p := Params{Name: "fuzz", CPICache: cpiCache, BF: bf, MPKI: mpki, WBR: wbr}
		top := Topology{
			Name: "fuzz", Threads: 16, Cores: 8, CoreSpeed: units.GHzOf(ghz), LineSize: 64,
			Policy: SplitPolicy(policy % 3),
		}
		n := int(tiers % 3) // 1, 2, or 3 tiers; 0 reads as 3
		if n == 0 {
			n = 3
		}
		if top.Policy == SplitLocalRemote {
			n, top.RemoteFraction = 2, s1
		}
		shares := []float64{s0, s1, s2}[:n]
		if top.Policy == SplitFractions {
			// Scale to a unit sum so most inputs get past validation.
			sum := 0.0
			for _, s := range shares {
				sum += s
			}
			if sum > 0 && finite(sum) {
				for i := range shares {
					shares[i] /= sum
				}
			}
		}
		comp, peak := []float64{c0, c1, c2}, []float64{b0, b1, b2}
		for i := 0; i < n; i++ {
			top.Tiers = append(top.Tiers, MemTier{
				Name: "t", Share: shares[i], Compulsory: units.Duration(comp[i]),
				PeakBW: units.GBpsOf(peak[i]), Queue: curves[int(curve)%len(curves)],
			})
		}
		pt, err := EvaluateTopology(context.Background(), p, top)
		if err != nil {
			return
		}
		if !finite(pt.CPI, float64(pt.EffectiveMP)) {
			t.Fatalf("non-finite point: CPI %v, EffectiveMP %v", pt.CPI, pt.EffectiveMP)
		}
		for i, tr := range pt.Tiers {
			if !finite(float64(tr.MissPenalty), float64(tr.Demand), float64(tr.Delivered), tr.Utilization) {
				t.Fatalf("tier %d non-finite: %+v", i, tr)
			}
		}
	})
}
