package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/api"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{199, 90, true},
		{20, 50, true},
		{19, 0, false},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(xs, 99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
}

func TestSelfTimeNestedChildren(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a", Start: 30, End: 60, Parent: 0},  // overlaps its sibling
		{Name: "b", Start: 15, End: 25, Parent: 1},  // grandchild
		{Name: "b", Start: 90, End: 120, Parent: 0}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root": 100 - 50 - 10, // children cover [10,60] and [90,100]
		"a":    (30 - 10) + 30,
		"b":    10 + 30,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := rule{lowerBetter: true, bound: 0.1}
	mk := func(vs ...float64) side { return newSide(vs) }
	base := mk(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	cases := []struct {
		name   string
		change side
		want   string
	}{
		{"faster everywhere", mk(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "improved"},
		{"same", mk(100, 100, 101, 99, 100, 102, 98, 100, 101, 99), "no worse"},
		{"worse beyond bound", mk(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "regressed"},
		{"worse within bound", mk(105, 106, 104, 105, 107, 103, 105, 106, 104, 105), "no worse"},
		{"too noisy", mk(60, 140, 70, 130, 100, 65, 135, 100, 90, 110), "unresolved"},
	}
	for _, c := range cases {
		if got, _, _ := verdict(lower, base, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// A noisy change that beats every parent run is not unresolved.
	noisyBetter := mk(50, 90, 55, 85, 60, 80, 65, 75, 70, 95)
	if got, _, _ := verdict(lower, base, noisyBetter); got != "improved" {
		t.Errorf("noisy but always better: %q, want improved", got)
	}
	// Higher-is-better metrics flip the direction.
	higher := rule{bound: 0.1}
	if got, _, _ := verdict(higher, base, mk(80, 81, 79, 80, 82, 78, 80, 81, 79, 80)); got != "regressed" {
		t.Errorf("lower throughput: %q, want regressed", got)
	}
}

func TestPacerLateness(t *testing.T) {
	// Already due: the worker was busy, which is backlog, not pacer
	// lateness.
	if late, waited, _ := pace(time.Now().Add(-time.Millisecond)); waited || late != 0 {
		t.Errorf("past due: late %v waited %v; want 0, false", late, waited)
	}
	due := time.Now().Add(2 * time.Millisecond)
	late, waited, spun := pace(due)
	if !waited || late < 0 || time.Now().Before(due) {
		t.Errorf("future due: late %v waited %v", late, waited)
	}
	if spun > spinWindow+5*time.Millisecond {
		t.Errorf("spun %v, longer than the spin window allows", spun)
	}
	p := &phase{out: []outcome{
		{late: 0.5, waited: true},
		{late: 9, waited: false}, // backlog: not counted
		{late: 1.5, waited: true},
	}}
	got := p.lateness()
	if len(got) != 2 || got[0] != 0.5 || got[1] != 1.5 {
		t.Errorf("lateness = %v, want [0.5 1.5]", got)
	}
	// A failed request misses every latency limit.
	p.out[1].failed = true
	if lat := p.latencies(); !math.IsInf(lat[1], 1) {
		t.Errorf("failed request latency %v, want +Inf", lat[1])
	}
}

// The fit check must report an artifact that differs from its golden.
func TestFitRunReportsCorruptedGolden(t *testing.T) {
	w := fitWorkload{ids: []string{"fig1"}}
	fs, err := newFitSetup("..", w)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	res, _, err := runFitEngine(context.Background(), fs, w, filepath.Join(out, "a"), fs.reg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Files == 0 {
		t.Fatalf("clean run: %d of %d failed: %v", res.Failed, res.Files, res.Problems)
	}
	fs, err = newFitSetup("..", w)
	if err != nil {
		t.Fatal(err)
	}
	fs.golden[0].SHA256 = "0000000000000000000000000000000000000000000000000000000000000000"
	res, _, err = runFitEngine(context.Background(), fs, w, filepath.Join(out, "b"), fs.reg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 {
		t.Fatalf("corrupted golden: %d failed, want 1", res.Failed)
	}
}

// The serving check must report an answer that differs from its
// reference, for a cached answer as for a solved one.
func TestServeRunReportsCorruptedReference(t *testing.T) {
	s, err := newServeStack(serveWorkloads["serve-hot"], 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.h.close()
	if f, err := s.warm.verify(context.Background()); err != nil || f != 0 {
		t.Fatalf("warm-up: %d failed, %v", f, err)
	}
	p := newPhase(&s.r, 2000, 200, s.draw)
	p.run(s.h, nil, 0)
	if f, err := p.verify(context.Background()); err != nil || f != 0 {
		t.Fatalf("clean phase: %d failed, %v", f, err)
	}
	p.reqs[0].ref ^= 1 // requests share catalogue entries
	bad := 0
	for _, r := range p.reqs {
		if r == p.reqs[0] {
			bad++
		}
	}
	for i := range p.out {
		p.out[i].failed = false
	}
	f, err := p.verify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if f != bad {
		t.Fatalf("corrupted reference: %d failed, want %d", f, bad)
	}
}

// Every cold scenario kind must round-trip through the daemon and match
// its in-process reference, the fleet simulation's event hash included.
func TestColdScenariosMatchReferences(t *testing.T) {
	s, err := newServeStack(serveWorkloads["serve-cold"], 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.h.close()
	r := rng(5)
	cat := hotCatalogue()
	kinds := map[int]bool{}
	var reqs []*request
	for step := uint64(1); len(kinds) < 4; step++ {
		req := drawCold(&r, cat, step)
		if !kinds[req.kind] {
			kinds[req.kind] = true
			reqs = append(reqs, req)
		}
	}
	p := &phase{reqs: reqs, due: make([]time.Duration, len(reqs)), out: make([]outcome, len(reqs))}
	p.run(s.h, nil, 0)
	if f, err := p.verify(context.Background()); err != nil || f != 0 {
		t.Fatalf("%d of %d cold answers failed, %v", f, len(reqs), err)
	}
}

// No two cold scenarios, and no cold scenario and catalogue entry, may
// share parameters, or the cache would serve them.
func TestColdScenariosAreDistinct(t *testing.T) {
	r := rng(3)
	cat := hotCatalogue()
	seen := map[string]bool{}
	for step := uint64(1); step <= 20000; step++ {
		req := drawCold(&r, cat, step)
		var ps api.ParamsSpec
		var where any
		switch req.kind {
		case kEvaluate:
			ps, where = req.eval.Params, req.eval.Platform
		case kTopology:
			ps, where = req.topo.Params, req.topo.Topology.Name
		case kSweep:
			ps, where = req.sweep.Classes[0], req.sweep.Axis
		case kCluster:
			ps, where = req.clus.Tenants[0].Params, req.clus.Seed
		}
		key := fmt.Sprintf("%d %v %v %x", req.kind, ps.Class, where, math.Float64bits(ps.MPKI))
		if seen[key] {
			t.Fatalf("step %d repeats a scenario: %s", step, key)
		}
		seen[key] = true
	}
	// drawCold copies catalogue entries; it must not change them.
	for i, req := range cat {
		var mpki float64
		switch req.kind {
		case kEvaluate:
			mpki = req.eval.Params.MPKI
		case kTopology:
			mpki = req.topo.Params.MPKI
		case kSweep:
			mpki = req.sweep.Classes[0].MPKI
		}
		if mpki != 0 {
			t.Fatalf("catalogue entry %d was changed: MPKI %v", i, mpki)
		}
	}
}

func compareRecord(wl string, seconds float64, attempted, failed int, vals map[string]float64) record {
	m := metrics{}
	for k, v := range vals {
		m[k] = metric{Value: v}
	}
	return record{Workload: wl, Seconds: seconds, Result: result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}}
}

func TestCompareFailuresMissingAndSeconds(t *testing.T) {
	rules := map[string]rule{"wall_s": {lowerBetter: true, bound: 0.1}, "cpu_s": {lowerBetter: true, bound: 0.1}}
	var parent, same, faster, failing, lacking []record
	for i := 0; i < 10; i++ {
		v := 10 + float64(i%3)/10
		parent = append(parent, compareRecord("w", 20, 100, 0, map[string]float64{"wall_s": v, "cpu_s": v}))
		same = append(same, compareRecord("w", 20, 100, 0, map[string]float64{"wall_s": v, "cpu_s": v}))
		faster = append(faster, compareRecord("w", 20, 100, 0, map[string]float64{"wall_s": v / 2, "cpu_s": v / 2}))
		// Much faster, but some answers are wrong: not a gain.
		failing = append(failing, compareRecord("w", 20, 100, i%2, map[string]float64{"wall_s": v / 2, "cpu_s": v / 2}))
		lacking = append(lacking, compareRecord("w", 20, 100, 0, map[string]float64{"wall_s": v}))
	}
	verdictOf := func(rows [][]string, metric string) string {
		for _, r := range rows {
			if r[1] == metric {
				return r[6]
			}
		}
		return ""
	}
	if rows, bad := judge(rules, parent, same); bad || verdictOf(rows, "wall_s") != "no worse" {
		t.Errorf("same code: bad %v, rows %v", bad, rows)
	}
	if rows, bad := judge(rules, parent, faster); bad || verdictOf(rows, "wall_s") != "improved" {
		t.Errorf("faster: bad %v, rows %v", bad, rows)
	}
	if rows, bad := judge(rules, parent, failing); !bad || verdictOf(rows, "failed/attempted") != "more failures" || verdictOf(rows, "wall_s") == "improved" {
		t.Errorf("failing change: bad %v, rows %v", bad, rows)
	}
	if rows, bad := judge(rules, parent, lacking); !bad || verdictOf(rows, "cpu_s") != "missing" {
		t.Errorf("change lacking cpu_s: bad %v, rows %v", bad, rows)
	}
	if rows, bad := judge(rules, parent, nil); !bad || verdictOf(rows, "failed/attempted") != "missing" {
		t.Errorf("change lacking the workload: bad %v, rows %v", bad, rows)
	}
	if err := sameSeconds(parent, same); err != nil {
		t.Errorf("same --seconds: %v", err)
	}
	longer := append([]record(nil), same...)
	longer[0].Seconds = 30
	if err := sameSeconds(parent, longer); err == nil {
		t.Error("runs of different lengths compared without complaint")
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the tables", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the table %+v", kind, i, m, want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
