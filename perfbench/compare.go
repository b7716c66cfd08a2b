package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the compare command needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// rule is how one metric is judged: its better direction and, for an
// end-to-end metric, its regression bound (0 for none).
type rule struct {
	lowerBetter bool
	bound       float64
}

func loadRules(path string) (map[string]rule, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rules := map[string]rule{}
	for _, m := range spec.EndToEnd {
		rules[m.Name] = rule{lowerBetter: m.Better == "lower", bound: m.Bound}
	}
	for _, m := range spec.PerLayer {
		rules[m.Name] = rule{lowerBetter: m.Better == "lower"}
	}
	return rules, nil
}

// side is one metric's runs on one commit.
type side struct {
	values         []float64
	median, q1, q3 float64
}

func newSide(vs []float64) side {
	q1, q3 := quartiles(vs)
	return side{values: vs, median: median(vs), q1: q1, q3: q3}
}

// spread is the distance between quartiles as a share of the median.
func (s side) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / math.Abs(s.median)
}

// verdict judges change against parent by the benchmark's rule: a gain
// needs the change to win at least nine tenths of the pairs (ties count
// for neither) and the medians to differ by more than the parent's
// quartile spread; a metric whose spread exceeds its bound is
// unresolved unless every change run beats every parent run; otherwise
// a median worse by more than the bound is a regression.
func verdict(r rule, parent, change side) (string, int, int) {
	better := func(a, b float64) bool {
		if r.lowerBetter {
			return a < b
		}
		return a > b
	}
	pairs := len(parent.values)
	if len(change.values) < pairs {
		pairs = len(change.values)
	}
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(change.values[i], parent.values[i]):
			wins++
		case better(parent.values[i], change.values[i]):
			losses++
		}
	}
	diff := math.Abs(change.median - parent.median)
	parentIQR := parent.q3 - parent.q1
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && diff > parentIQR && better(change.median, parent.median) {
		return "improved", wins, pairs
	}
	if r.bound == 0 {
		if pairs > 0 && float64(losses) >= 0.9*float64(pairs) && diff > parentIQR && better(parent.median, change.median) {
			return "worse", wins, pairs
		}
		return "no change shown", wins, pairs
	}
	allBetter := len(change.values) > 0 && len(parent.values) > 0
	for _, c := range change.values {
		for _, p := range parent.values {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	if !allBetter && math.Max(parent.spread(), change.spread()) > r.bound {
		return "unresolved", wins, pairs
	}
	worse := (change.median - parent.median) / math.Abs(parent.median)
	if r.lowerBetter {
		worse = -worse
	}
	if parent.median != 0 && -worse > r.bound {
		return "regressed", wins, pairs
	}
	return "no worse", wins, pairs
}

// readRecords loads every record under path: a .jsonl file, or every
// .jsonl file in a directory, in name order.
func readRecords(path string) ([]record, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		files, _ = filepath.Glob(filepath.Join(path, "*.jsonl"))
		sort.Strings(files)
	}
	var out []record
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 1<<20), 1<<26)
		for sc.Scan() {
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				fh.Close()
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			out = append(out, r)
		}
		fh.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// hosts summarizes the distinct machines and toolchains of a set.
func hosts(recs []record) string {
	seen := map[string]bool{}
	for _, r := range recs {
		seen[fmt.Sprintf("cpus=%d gomaxprocs=%d %s", r.Host.CPUs, r.Host.GOMAXPROCS, r.Host.GoVersion)] = true
	}
	return fmt.Sprint(sortedKeys(seen))
}

// group collects values per workload and metric, in record order.
func group(recs []record) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range recs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// failures sums attempted and failed operations per workload. A record
// marked incorrect counts at least one failure.
func failures(recs []record) map[string][2]int {
	out := map[string][2]int{}
	for _, r := range recs {
		f := r.Result.Failed
		if !r.Result.Correct && f == 0 {
			f = 1
		}
		t := out[r.Workload]
		out[r.Workload] = [2]int{t[0] + r.Result.Attempted, t[1] + f}
	}
	return out
}

// sameSeconds returns an error when a workload's runs, on either side,
// measured for different lengths of time: pairs must compare like with
// like.
func sameSeconds(parent, change []record) error {
	seen := map[string]map[float64]bool{}
	for _, r := range append(append([]record(nil), parent...), change...) {
		if seen[r.Workload] == nil {
			seen[r.Workload] = map[float64]bool{}
		}
		seen[r.Workload][r.Seconds] = true
	}
	for _, wl := range sortedKeys(seen) {
		if len(seen[wl]) > 1 {
			var secs []float64
			for s := range seen[wl] {
				secs = append(secs, s)
			}
			sort.Float64s(secs)
			return fmt.Errorf("%s: runs measured for different times %v; compare runs made with the same --seconds", wl, secs)
		}
	}
	return nil
}

// judge makes one row per workload and metric the parent has: each
// side's median and quartiles, the change's pair wins, the bound and the
// verdict, after a row of each side's failed/attempted operations. A
// workload whose change fails a larger share of operations shows no
// gain. It reports bad when the change fails a larger share of its operations,
// lacks a workload or metric the parent has, or regresses a metric.
func judge(rules map[string]rule, parentRecs, changeRecs []record) (rows [][]string, bad bool) {
	parent, change := group(parentRecs), group(changeRecs)
	pf, cf := failures(parentRecs), failures(changeRecs)
	for _, wl := range sortedKeys(parent) {
		p, c := pf[wl], cf[wl]
		v := "no more failures"
		switch {
		case c[0] == 0:
			v = "missing"
		case c[1]*p[0] > p[1]*c[0]:
			v = "more failures"
		}
		moreFailures := v != "no more failures"
		if moreFailures {
			bad = true
		}
		rows = append(rows, []string{wl, "failed/attempted", fmt.Sprintf("%d/%d", p[1], p[0]), fmt.Sprintf("%d/%d", c[1], c[0]), "-", "-", v})
		for _, name := range sortedKeys(parent[wl]) {
			r, ok := rules[name]
			if !ok {
				continue
			}
			ps := newSide(parent[wl][name])
			bound := "-"
			if r.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", r.bound*100)
			}
			pcol := fmt.Sprintf("%.6g [%.6g, %.6g]", ps.median, ps.q1, ps.q3)
			cv := change[wl][name]
			if len(cv) == 0 {
				bad = true
				rows = append(rows, []string{wl, name, pcol, "-", "-", bound, "missing"})
				continue
			}
			cs := newSide(cv)
			v, wins, pairs := verdict(r, ps, cs)
			if v == "regressed" {
				bad = true
			}
			if v == "improved" && moreFailures {
				// A gain does not count when more operations fail.
				v = "not counted: more failures"
			}
			rows = append(rows, []string{wl, name, pcol, fmt.Sprintf("%.6g [%.6g, %.6g]", cs.median, cs.q1, cs.q3),
				fmt.Sprintf("%d/%d", wins, pairs), bound, v})
		}
	}
	return rows, bad
}

// compareMain prints judge's rows. It exits 1 when the change is bad and
// 2 when the sets cannot be compared.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metrics' directions and bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] PARENT CHANGE (each a results directory or .jsonl file)")
		return 2
	}
	rules, err := loadRules(*bench)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	parentRecs, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	changeRecs, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := sameSeconds(parentRecs, changeRecs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if hp, hc := hosts(parentRecs), hosts(changeRecs); hp != hc {
		fmt.Fprintf(stdout, "warning: the sets ran on different hosts or toolchains:\n  parent %s\n  change %s\n", hp, hc)
	}
	rows, bad := judge(rules, parentRecs, changeRecs)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\twins/pairs\tbound\tverdict")
	for _, r := range rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	if bad {
		return 1
	}
	return 0
}
