package model

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/queueing"
	"repro/internal/solve"
	"repro/internal/units"
)

// The flat, tiered, and NUMA shapes are one evaluator, EvaluateTopology,
// and one Eq. 5 scenario. The golden values below pin every shape bit
// for bit (strconv.FormatFloat(f, 'x', -1, 64) on every field). The
// tiered values were captured from the original tiered evaluator. The
// flat and NUMA values were re-pinned when all shapes moved onto the
// one CPI-space scenario: flat CPIs moved by at most 5e-8 relative, a
// flat bandwidth-bound point reports its pre-clamp demand, and the
// bandwidth-bound NUMA demands moved in the last bits.

func mustHex(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad hex float %q: %v", s, err)
	}
	return f
}

func bitEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkBits asserts exact bit equality, reporting both hex forms.
func checkBits(t *testing.T, field string, got float64, wantHex string) {
	t.Helper()
	want := mustHex(t, wantHex)
	if !bitEq(got, want) {
		t.Errorf("%s = %s, want %s (golden bits)",
			field, strconv.FormatFloat(got, 'x', -1, 64), wantHex)
	}
}

// equivCases mirrors the capture harness that produced the golden
// values: three workload classes spanning the latency-limited
// (enterprise), mixed (bigdata), and bandwidth-starved (hpc on a
// 10 GB/s machine) regimes.
func equivCases() (queueing.Curve, []struct {
	name string
	p    Params
	pl   Platform
}) {
	curve := queueing.MM1{Service: 6, ULimit: 0.95}
	base := BaselinePlatform(curve)
	starved := base.WithPeakBW(units.GBpsOf(10))
	return curve, []struct {
		name string
		p    Params
		pl   Platform
	}{
		{"enterprise", Params{Name: "Enterprise", CPICache: 1.07, BF: 0.42, MPKI: 1.3, WBR: 0.45}, base},
		{"bigdata", Params{Name: "Big Data", CPICache: 0.91, BF: 0.21, MPKI: 5.5, WBR: 0.92}, base},
		{"hpc-starved", Params{Name: "HPC", CPICache: 0.50, BF: 0.50, MPKI: 20, WBR: 0.50}, starved},
	}
}

func equivTiered(pl Platform, curve queueing.Curve) TieredPlatform {
	return TieredPlatform{
		Name: "tp", Threads: pl.Threads, Cores: pl.Cores, CoreSpeed: pl.CoreSpeed, LineSize: pl.LineSize,
		Tiers: []Tier{
			{Name: "near", HitFraction: 0.8, Compulsory: pl.Compulsory, PeakBW: pl.PeakBW, Queue: curve},
			{Name: "far", HitFraction: 0.2, Compulsory: 3 * pl.Compulsory, PeakBW: pl.PeakBW * 0.4, Queue: curve},
		},
	}
}

func equivNUMA(pl Platform, curve queueing.Curve) NUMAPlatform {
	return NUMAPlatform{
		Name: "np", Sockets: 2, ThreadsPerSocket: pl.Threads, CoresPerSocket: pl.Cores,
		CoreSpeed: pl.CoreSpeed, LineSize: pl.LineSize,
		LocalCompulsory: pl.Compulsory, RemoteAdder: 60 * units.Nanosecond,
		SocketPeakBW: pl.PeakBW, LinkPeakBW: units.GBpsOf(25), RemoteFraction: 0.3, Queue: curve,
	}
}

// TestFlatGoldenBitIdentity pins Evaluate to its golden bits.
func TestFlatGoldenBitIdentity(t *testing.T) {
	golden := map[string]struct{ cpi, mp, q, d, del, u string }{
		"enterprise":  {"0x1.2c5b4ffff7f2ep+00", "0x1.2e9e26f9136d2p+06", "0x1.4f137c89b69p-01", "0x1.ea4d6e505df71p+31", "0x1.ea4d6e505df71p+31", "0x1.92d46d9e71f1p-04"},
		"bigdata":     {"0x1.261b2ca29d066p+00", "0x1.4ae09f861b65fp+06", "0x1.ee09f861b65fp+02", "0x1.5ea3824956f17p+34", "0x1.5ea3824956f17p+34", "0x1.2015340c46292p-01"},
		"hpc-starved": {"0x1.eb851eb851eb8p+02", "0x1.79ffffffffffcp+07", "0x1.c7ffffffffff8p+06", "0x1.b60d25f99585bp+33", "0x1.2a05f2p+33", "0x1p+00"},
	}
	wantBound := map[string]bool{"enterprise": false, "bigdata": false, "hpc-starved": true}
	_, cases := equivCases()
	for _, tc := range cases {
		op, err := Evaluate(context.Background(), tc.p, tc.pl)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		g := golden[tc.name]
		checkBits(t, tc.name+".CPI", op.CPI, g.cpi)
		checkBits(t, tc.name+".MissPenalty", float64(op.MissPenalty), g.mp)
		checkBits(t, tc.name+".QueueDelay", float64(op.QueueDelay), g.q)
		checkBits(t, tc.name+".Demand", float64(op.Demand), g.d)
		checkBits(t, tc.name+".Delivered", float64(op.Delivered), g.del)
		checkBits(t, tc.name+".Utilization", op.Utilization, g.u)
		if op.BandwidthBound != wantBound[tc.name] {
			t.Errorf("%s.BandwidthBound = %v, want %v", tc.name, op.BandwidthBound, wantBound[tc.name])
		}
	}
}

// TestTieredGoldenBitIdentity pins EvaluateTopology on a tiered
// platform's fraction topology to the original tiered evaluator's
// bits, including per-tier state and iteration counts.
func TestTieredGoldenBitIdentity(t *testing.T) {
	type tierG struct{ mp, d, u string }
	golden := map[string]struct {
		cpi   string
		bound bool
		iters int
		near  tierG
		far   tierG
		sat   [2]bool
	}{
		"enterprise": {"0x1.36c5298bf3f58p+00", false, 24,
			tierG{"0x1.2df9a5e1af1c1p+06", "0x1.7b193693494b9p+31", "0x1.37771902ce9c1p-04"},
			tierG{"0x1.c29948c6f88f4p+07", "0x1.7b193693494b9p+29", "0x1.8554df4382432p-05"},
			[2]bool{false, false}},
		"bigdata": {"0x1.397cdf8575b94p+00", false, 26,
			tierG{"0x1.3d8b462df0ab6p+06", "0x1.072b0bc1dfbbbp+34", "0x1.b06f5bd35bc0fp-02"},
			tierG{"0x1.c64d8ed3f02d5p+07", "0x1.072b0bc1dfbbbp+32", "0x1.0e45996419589p-02"},
			[2]bool{false, false}},
		"hpc-starved": {"0x1.89374bc6a7efap+02", true, 30,
			tierG{"0x1.79ffffffffffcp+07", "0x1.4e698fdac7688p+33", "0x1p+00"},
			tierG{"0x1.de2d0849b69e6p+07", "0x1.4e698fdac7688p+31", "0x1.67129132c2284p-01"},
			[2]bool{true, false}},
	}
	curve, cases := equivCases()
	for _, tc := range cases {
		op, err := EvaluateTopology(context.Background(), tc.p, equivTiered(tc.pl, curve).Topology())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		g := golden[tc.name]
		checkBits(t, tc.name+".CPI", op.CPI, g.cpi)
		if op.BandwidthBound != g.bound {
			t.Errorf("%s.BandwidthBound = %v, want %v", tc.name, op.BandwidthBound, g.bound)
		}
		if op.Iterations != g.iters {
			t.Errorf("%s.Iterations = %d, want %d", tc.name, op.Iterations, g.iters)
		}
		if len(op.Tiers) != 2 {
			t.Fatalf("%s: got %d tiers", tc.name, len(op.Tiers))
		}
		for i, tg := range []tierG{g.near, g.far} {
			tr := op.Tiers[i]
			checkBits(t, tc.name+"."+tr.Name+".MissPenalty", float64(tr.MissPenalty), tg.mp)
			checkBits(t, tc.name+"."+tr.Name+".Demand", float64(tr.Demand), tg.d)
			checkBits(t, tc.name+"."+tr.Name+".Utilization", tr.Utilization, tg.u)
			if tr.Saturated != g.sat[i] {
				t.Errorf("%s.%s.Saturated = %v, want %v", tc.name, tr.Name, tr.Saturated, g.sat[i])
			}
		}
	}
}

// TestNUMAGoldenBitIdentity pins EvaluateTopology on a NUMA platform's
// local/remote topology to its golden bits (tier 0 is socket DRAM,
// tier 1 the interconnect).
func TestNUMAGoldenBitIdentity(t *testing.T) {
	golden := map[string]struct {
		cpi, lmp, rmp, emp, dd, ld, du, lu string
		bound                              bool
	}{
		"enterprise": {"0x1.32ac60698064ap+00", "0x1.2e8ee0aadcb44p+06", "0x1.0fe37a85a634bp+07", "0x1.76ec8061649dcp+06",
			"0x1.e0341ae92a8eap+31", "0x1.201f4358b3226p+30", "0x1.8a8856bbb6eb3p-04", "0x1.8bfdf591bde08p-05", false},
		"bigdata": {"0x1.335ef2806b827p+00", "0x1.47fda4cb4152bp+06", "0x1.20701ca0d0b1dp+07", "0x1.92a804885e248p+06",
			"0x1.4f81b8be53e4dp+34", "0x1.929baa7dfe45cp+32", "0x1.13a685651d7f3p-01", "0x1.14ab8f8d3d79p-02", false},
		"hpc-starved": {"0x1.eb851eb851eb8p+02", "0x1.79ffffffffffcp+07", "0x1.f45284624b802p+07", "0x1.9eb25aea49d98p+07",
			"0x1.92b2b29aa7029p+33", "0x1.e33cd6532ecfep+31", "0x1p+00", "0x1.4c1410cb77ecap-03", true},
	}
	curve, cases := equivCases()
	for _, tc := range cases {
		op, err := EvaluateTopology(context.Background(), tc.p, equivNUMA(tc.pl, curve).Topology())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		g := golden[tc.name]
		checkBits(t, tc.name+".CPI", op.CPI, g.cpi)
		checkBits(t, tc.name+".LocalMP", float64(op.Tiers[0].MissPenalty), g.lmp)
		checkBits(t, tc.name+".RemoteMP", float64(op.Tiers[1].MissPenalty), g.rmp)
		checkBits(t, tc.name+".EffectiveMP", float64(op.EffectiveMP), g.emp)
		checkBits(t, tc.name+".DRAMDemand", float64(op.Tiers[0].Demand), g.dd)
		checkBits(t, tc.name+".LinkDemand", float64(op.Tiers[1].Demand), g.ld)
		checkBits(t, tc.name+".DRAMUtil", op.Tiers[0].Utilization, g.du)
		checkBits(t, tc.name+".LinkUtil", op.Tiers[1].Utilization, g.lu)
		if op.BandwidthBound != g.bound {
			t.Errorf("%s.BandwidthBound = %v, want %v", tc.name, op.BandwidthBound, g.bound)
		}
	}
}

// TestAdaptersMatchTopology asserts the flat Evaluate returns exactly
// what EvaluateTopology returns for the platform's one-tier topology —
// the adapter adds no arithmetic of its own.
func TestAdaptersMatchTopology(t *testing.T) {
	ctx := context.Background()
	_, cases := equivCases()
	for _, tc := range cases {
		op, err := Evaluate(ctx, tc.p, tc.pl)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := EvaluateTopology(ctx, tc.p, tc.pl.Topology())
		if err != nil {
			t.Fatal(err)
		}
		if !bitEq(op.CPI, pt.CPI) || !bitEq(float64(op.MissPenalty), float64(pt.Tiers[0].MissPenalty)) ||
			!bitEq(float64(op.Demand), float64(pt.Tiers[0].Demand)) || op.BandwidthBound != pt.BandwidthBound {
			t.Errorf("%s: flat adapter diverges from 1-tier topology", tc.name)
		}
	}
}

// TestInterleaveNormalization: integer interleave weights are the same
// topology as the equivalent explicit fractions (3:1 == 0.75/0.25).
func TestInterleaveNormalization(t *testing.T) {
	curve, cases := equivCases()
	tc := cases[1] // bigdata
	frac := equivTiered(tc.pl, curve).Topology()
	inter := frac
	inter.Policy = SplitInterleave
	inter.Tiers = append([]MemTier(nil), frac.Tiers...)
	inter.Tiers[0].Share = 8 // 8:2 == 0.8/0.2
	inter.Tiers[1].Share = 2

	a, err := EvaluateTopology(context.Background(), tc.p, frac)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvaluateTopology(context.Background(), tc.p, inter)
	if err != nil {
		t.Fatal(err)
	}
	// 8/10 and 2/10 are exact in binary floating point only up to
	// rounding; 0.8 = 8/10 rounds identically, so the solves agree.
	if !bitEq(a.CPI, b.CPI) {
		t.Errorf("interleave 8:2 CPI %v != fractions 0.8/0.2 CPI %v", b.CPI, a.CPI)
	}
}

// TestEfficiencyDerating: a derated tier behaves exactly like a tier
// whose peak is the sustained bandwidth, and derating never improves
// CPI. Efficiency 1 (or 0, the default) changes no bits.
func TestEfficiencyDerating(t *testing.T) {
	ctx := context.Background()
	_, cases := equivCases()
	for _, tc := range cases {
		top := tc.pl.Topology()
		one := top
		one.Tiers = append([]MemTier(nil), top.Tiers...)
		one.Tiers[0].Efficiency = 1

		base, err := EvaluateTopology(ctx, tc.p, top)
		if err != nil {
			t.Fatal(err)
		}
		unity, err := EvaluateTopology(ctx, tc.p, one)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEq(base.CPI, unity.CPI) {
			t.Errorf("%s: Efficiency=1 changed CPI bits", tc.name)
		}

		der := top.WithTierEfficiency(0.8)
		derated, err := EvaluateTopology(ctx, tc.p, der)
		if err != nil {
			t.Fatal(err)
		}
		if derated.CPI < base.CPI {
			t.Errorf("%s: derating improved CPI (%v < %v)", tc.name, derated.CPI, base.CPI)
		}

		// Equivalent formulation: scale the peak directly.
		scaled := top
		scaled.Tiers = append([]MemTier(nil), top.Tiers...)
		scaled.Tiers[0].PeakBW = units.BytesPerSecond(float64(top.Tiers[0].PeakBW) * 0.8)
		viaPeak, err := EvaluateTopology(ctx, tc.p, scaled)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEq(derated.CPI, viaPeak.CPI) {
			t.Errorf("%s: Efficiency=0.8 (%v) != PeakBW×0.8 (%v)", tc.name, derated.CPI, viaPeak.CPI)
		}
	}
}

// TestTopologyValidate exercises the per-policy validation rules.
func TestTopologyValidate(t *testing.T) {
	curve := queueing.MM1{Service: 6, ULimit: 0.95}
	good := BaselinePlatform(curve).Topology()
	if err := good.Validate(); err != nil {
		t.Fatalf("baseline topology should validate: %v", err)
	}
	bad := []Topology{
		{},
		func() Topology { c := good; c.Tiers = nil; return c }(),
		func() Topology {
			c := good
			c.Tiers = []MemTier{{Name: "m", Share: 1, Compulsory: 75, PeakBW: units.GBpsOf(10), Efficiency: 1.5, Queue: curve}}
			return c
		}(),
		func() Topology {
			c := good
			c.Tiers = []MemTier{{Name: "m", Share: 0.5, Compulsory: 75, PeakBW: units.GBpsOf(10), Queue: curve}}
			return c
		}(),
		func() Topology { c := good; c.Policy = SplitLocalRemote; return c }(), // needs 2 tiers
		func() Topology {
			c := good
			c.Policy = SplitInterleave
			c.Tiers = []MemTier{{Name: "m", Share: 0, Compulsory: 75, PeakBW: units.GBpsOf(10), Queue: curve}}
			return c
		}(),
		func() Topology { c := good; c.Policy = SplitPolicy(99); return c }(),
	}
	for i, top := range bad {
		err := top.Validate()
		if err == nil {
			t.Errorf("case %d: expected validation error", i)
			continue
		}
		if !errors.Is(err, ErrInvalidPlatform) {
			t.Errorf("case %d: error %v should wrap ErrInvalidPlatform", i, err)
		}
	}
	if _, err := EvaluateTopology(context.Background(), Params{Name: "w", CPICache: 1, BF: 0.4, MPKI: 2, WBR: 0.5}, bad[0]); err == nil {
		t.Error("EvaluateTopology must reject invalid topologies")
	}
}

// TestEvaluateTopologyAllIndexedErrors: batch failures name the grid
// cell (the EvaluateAll satellite, via the shared grid path).
func TestEvaluateTopologyAllIndexedErrors(t *testing.T) {
	curve := queueing.MM1{Service: 6, ULimit: 0.95}
	goodP := Params{Name: "ok", CPICache: 1, BF: 0.4, MPKI: 2, WBR: 0.5}
	badP := Params{Name: "broken"} // fails Params.Validate
	top := BaselinePlatform(curve).Topology()

	_, err := EvaluateTopologyAll(context.Background(), []Params{goodP, badP}, []Topology{top})
	if err == nil {
		t.Fatal("expected an error for the invalid class")
	}
	for _, want := range []string{"class 1", "broken"} {
		if !contains(err.Error(), want) {
			t.Errorf("error %q should mention %q", err, want)
		}
	}
}

// TestEvaluateAllIndexedErrors: the flat batch evaluator names the
// failing (class, platform) pair.
func TestEvaluateAllIndexedErrors(t *testing.T) {
	curve := queueing.MM1{Service: 6, ULimit: 0.95}
	goodP := Params{Name: "ok", CPICache: 1, BF: 0.4, MPKI: 2, WBR: 0.5}
	pl := BaselinePlatform(curve)
	badPl := pl
	badPl.Name = "no-queue"
	badPl.Queue = nil

	_, err := EvaluateAll(context.Background(), []Params{goodP}, []Platform{pl, badPl})
	if err == nil {
		t.Fatal("expected an error for the invalid platform")
	}
	for _, want := range []string{"platform 1", "no-queue"} {
		if !contains(err.Error(), want) {
			t.Errorf("error %q should mention %q", err, want)
		}
	}
	if !errors.Is(err, ErrInvalidPlatform) {
		t.Errorf("wrapped error should still classify as ErrInvalidPlatform: %v", err)
	}

	_, err = EvaluateAll(context.Background(), []Params{goodP, {Name: "bad"}}, []Platform{pl})
	if err == nil {
		t.Fatal("expected an error for the invalid class")
	}
	if !contains(err.Error(), "class 1 (bad)") {
		t.Errorf("error %q should name the failing class cell", err)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// TestSplitPolicyString covers the telemetry names.
func TestSplitPolicyString(t *testing.T) {
	for want, got := range map[string]string{
		"fractions":    SplitFractions.String(),
		"interleave":   SplitInterleave.String(),
		"local-remote": SplitLocalRemote.String(),
		"policy(42)":   SplitPolicy(42).String(),
	} {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// TestTopologyAllocsIndependentOfIterations: the scenario's F must not
// allocate, so solving a case to a tight tolerance costs no more
// allocations than solving it loosely, whatever the split policy.
func TestTopologyAllocsIndependentOfIterations(t *testing.T) {
	curve, cases := equivCases()
	p, pl := cases[1].p, cases[1].pl // bigdata on the baseline
	inter := equivTiered(pl, curve).Topology()
	inter.Policy = SplitInterleave
	three := equivTiered(pl, curve).Topology()
	three.Tiers = append(three.Tiers, MemTier{Name: "cxl", Share: 0.1, Compulsory: 4 * pl.Compulsory, PeakBW: pl.PeakBW / 4, Queue: curve})
	three.Tiers[0].Share = 0.7
	loose := solve.Solver{Options: solve.Options{Tol: 1e-2, MaxIter: 200}}
	for name, top := range map[string]Topology{
		"flat":         pl.Topology(),
		"fractions-3":  three,
		"interleave":   inter,
		"local-remote": equivNUMA(pl, curve).Topology(),
	} {
		c, err := newTopoCase(p, top)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var itLoose, itTight int
		aLoose := testing.AllocsPerRun(20, func() {
			out, _ := loose.Solve(context.Background(), c.sc)
			itLoose = out.Iterations
		})
		aTight := testing.AllocsPerRun(20, func() {
			out, _ := topoSolver.Solve(context.Background(), c.sc)
			itTight = out.Iterations
		})
		if itTight <= itLoose {
			t.Fatalf("%s: tight solve took %d iterations, loose %d; want more", name, itTight, itLoose)
		}
		if aTight != aLoose {
			t.Errorf("%s: %v allocs at %d iterations vs %v at %d; F must not allocate",
				name, aTight, itTight, aLoose, itLoose)
		}
	}
}
