package model

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/units"
)

func dualSocket() NUMAPlatform {
	return DualSocketBaseline(testCurve())
}

func TestNUMAValidate(t *testing.T) {
	if err := dualSocket().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*NUMAPlatform){
		func(n *NUMAPlatform) { n.Sockets = 0 },
		func(n *NUMAPlatform) { n.ThreadsPerSocket = 0 },
		func(n *NUMAPlatform) { n.CoreSpeed = 0 },
		func(n *NUMAPlatform) { n.LocalCompulsory = 0 },
		func(n *NUMAPlatform) { n.RemoteAdder = -1 },
		func(n *NUMAPlatform) { n.SocketPeakBW = 0 },
		func(n *NUMAPlatform) { n.LinkPeakBW = 0 },
		func(n *NUMAPlatform) { n.RemoteFraction = 1.5 },
		func(n *NUMAPlatform) { n.Queue = nil },
		func(n *NUMAPlatform) { n.Sockets = 1; n.RemoteFraction = 0.5 },
	}
	for i, mutate := range bad {
		np := dualSocket()
		mutate(&np)
		if err := np.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestNUMAZeroRemoteMatchesSingleSocket(t *testing.T) {
	// With perfect locality, each socket behaves exactly like the
	// single-socket baseline.
	np := dualSocket()
	for _, p := range allClasses() {
		single, err := Evaluate(context.Background(), p, testPlatform())
		if err != nil {
			t.Fatal(err)
		}
		numa, err := EvaluateTopology(context.Background(), p, np.Topology())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(single.CPI-numa.CPI) > 0.01*single.CPI {
			t.Fatalf("%s: single %v vs NUMA(local) %v", p.Name, single.CPI, numa.CPI)
		}
	}
}

func TestNUMARemoteAccessesCostMore(t *testing.T) {
	np := dualSocket()
	p := enterpriseClass()
	prev := -1.0
	for _, rf := range []float64{0, 0.25, 0.5} {
		op, err := EvaluateTopology(context.Background(), p, np.WithRemoteFraction(rf).Topology())
		if err != nil {
			t.Fatal(err)
		}
		if op.CPI <= prev {
			t.Fatalf("CPI must rise with remote fraction: %v at rf=%v after %v", op.CPI, rf, prev)
		}
		prev = op.CPI
	}
}

func TestNUMAEffectiveMPIsWeighted(t *testing.T) {
	np := dualSocket().WithRemoteFraction(0.5)
	op, err := EvaluateTopology(context.Background(), enterpriseClass(), np.Topology())
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5*float64(op.Tiers[0].MissPenalty) + 0.5*float64(op.Tiers[1].MissPenalty)
	if math.Abs(float64(op.EffectiveMP)-want) > 1e-6 {
		t.Fatalf("effective MP = %v, want weighted %v", op.EffectiveMP, want)
	}
	if op.Tiers[1].MissPenalty < op.Tiers[0].MissPenalty+50*units.Nanosecond {
		t.Fatalf("remote MP (%v) must include the ~60ns hop over local (%v)", op.Tiers[1].MissPenalty, op.Tiers[0].MissPenalty)
	}
}

func TestNUMAMatchesPaperTable3Latencies(t *testing.T) {
	// The paper's measured Structured-Data MPs (Table 3: 402 cycles at
	// 2.1 GHz ≈ 191 ns) embed dual-socket remote accesses. A uniform
	// interleave on the dual-socket baseline must land in that regime.
	np := dualSocket()
	op, err := EvaluateTopology(context.Background(), bigDataClass(), np.WithRemoteFraction(np.UniformInterleave()).Topology())
	if err != nil {
		t.Fatal(err)
	}
	if ns := op.EffectiveMP.Nanoseconds(); ns < 95 || ns > 200 {
		t.Fatalf("interleaved effective MP = %v ns, want in the paper's loaded NUMA regime", ns)
	}
}

func TestNUMALinkSaturation(t *testing.T) {
	// Choke the interconnect: HPC with half-remote traffic must become
	// link-bound.
	np := dualSocket().WithRemoteFraction(0.5)
	np.LinkPeakBW = units.GBpsOf(3)
	op, err := EvaluateTopology(context.Background(), hpcClass(), np.Topology())
	if err != nil {
		t.Fatal(err)
	}
	if !op.BandwidthBound {
		t.Fatal("choked link must bound the operating point")
	}
	wide := dualSocket().WithRemoteFraction(0.5)
	opWide, err := EvaluateTopology(context.Background(), hpcClass(), wide.Topology())
	if err != nil {
		t.Fatal(err)
	}
	if op.CPI <= opWide.CPI {
		t.Fatalf("choked link CPI (%v) must exceed wide link (%v)", op.CPI, opWide.CPI)
	}
}

func TestNUMAUniformInterleave(t *testing.T) {
	np := dualSocket()
	if got := np.UniformInterleave(); got != 0.5 {
		t.Fatalf("2-socket interleave = %v, want 0.5", got)
	}
	np.Sockets = 4
	if got := np.UniformInterleave(); got != 0.75 {
		t.Fatalf("4-socket interleave = %v, want 0.75", got)
	}
	np.Sockets = 1
	if got := np.UniformInterleave(); got != 0 {
		t.Fatalf("1-socket interleave = %v", got)
	}
}

func TestNUMARejectsBadInput(t *testing.T) {
	if _, err := EvaluateTopology(context.Background(), Params{}, dualSocket().Topology()); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("zero params: err = %v, want ErrInvalidParams", err)
	}
	np := dualSocket()
	np.Queue = nil
	if err := np.Validate(); !errors.Is(err, ErrInvalidPlatform) {
		t.Fatalf("nil queue Validate: err = %v, want ErrInvalidPlatform", err)
	}
	if _, err := EvaluateTopology(context.Background(), bigDataClass(), np.Topology()); !errors.Is(err, ErrInvalidPlatform) {
		t.Fatalf("nil queue topology: err = %v, want ErrInvalidPlatform", err)
	}
}

func TestNUMALatencySensitivityOrdering(t *testing.T) {
	// The class story survives the NUMA extension: going from perfect
	// locality to uniform interleave hurts enterprise (latency-bound)
	// proportionally more than it hurts HPC via latency alone.
	np := dualSocket()
	relCost := func(p Params) float64 {
		local, err := EvaluateTopology(context.Background(), p, np.Topology())
		if err != nil {
			t.Fatal(err)
		}
		inter, err := EvaluateTopology(context.Background(), p, np.WithRemoteFraction(0.5).Topology())
		if err != nil {
			t.Fatal(err)
		}
		return inter.CPI/local.CPI - 1
	}
	ent, hpc := relCost(enterpriseClass()), relCost(hpcClass())
	if ent <= hpc {
		t.Fatalf("enterprise NUMA cost (%v) must exceed HPC's (%v)", ent, hpc)
	}
}
