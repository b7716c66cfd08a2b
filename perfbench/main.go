// Command perfbench is the repository's benchmark. It times the two
// stacks from outside, through their public functions, and checks that
// every output it times is correct:
//
//   - fit-bigdata and fit-hpc regenerate paper artifacts through the
//     experiment registry and engine exactly as cmd/repro does, each
//     engine run in a fresh child process, and check every artifact's
//     sha256 against results/manifest.json;
//   - serve-hot and serve-cold drive memmodeld's handler over loopback
//     HTTP through the client SDK, open loop, and bit-check every answer
//     against an in-process answer computed without HTTP or the cache.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh compare PARENT CHANGE
//
// A run prints its host record on its first line, its diagnostics on
// the next and, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones BENCHMARK.json lists. With --trace 1 a separate traced
// run reports the per-layer ones and writes its spans to the build
// directory: for the fit workloads a span per experiment and fit around
// the engine run, then each fitted workload's machine run rebuilt from
// public pieces, checked against sim.Machine.Run and split into layers by
// replay (rebuild.go); for the serve workloads a span per client call,
// attempt and handler run. Every run also appends its record to the
// build directory's results/ for the compare command.
//
// setup_s is the CPU time from process start (fit) or from the start of
// set-up (serve) to the first timed operation, the median of repeated
// set-ups. The other end-to-end metrics have one meaning per stack. For
// the fit workloads wall_s and cpu_s cover one engine run (median over
// fresh processes). The serve workloads run with one P (serveProcs). A
// timed serve run is serveChildren fresh processes; cpu_s is the process
// CPU of a fixed number of requests at a fixed offered rate, and wall_s
// is the median time a fixed burst of requests, all due at once, takes
// to drain, the bursts interleaved with the fixed-rate slices (see
// serveTimed). Latency percentiles and the highest sustainable rate
// vary too much from run to run on a small shared host to gate a change;
// the traced run reports them as serve.p50_ms, serve.p99_ms and
// serve.max_rps.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are the run's command-line settings.
type options struct {
	ctx      context.Context // cancelled on interrupt, which stops child processes
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	root     string
	build    string
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// result is one run's outcome. The exported fields are the last line of
// output; a runner fills values, and run turns them into Metrics with
// the units the metric tables give. info and spans go to the record and
// the trace file.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`

	values map[string]float64
	info   map[string]any
	spans  []Span
}

// record is what the compare command reads: one run with its host.
type record struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Trace    bool           `json:"trace"`
	Seconds  float64        `json:"seconds"`
	Host     Host           `json:"host"`
	Info     map[string]any `json:"info,omitempty"`
	Result   result         `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "fit-bigdata, fit-hpc, serve-hot or serve-cold")
		seed     = fs.Uint64("seed", 1, "seed of the serving workloads' arrivals and scenarios (the fit workloads' inputs are pinned by their goldens)")
		seconds  = fs.Int("seconds", 20, "measuring time of one run")
		traced   = fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		root     = fs.String("root", ".", "repository root")
		build    = fs.String("build", ".bench_build", "directory for build output, results and traces")
		child    = fs.String("child", "", "internal: run one fit engine run, or one serve child's share of a timed run, and print it")
		setup    = fs.Bool("setup-only", false, "internal: with -child, stop after set-up")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, serveRun := serveWorkloads[*workload]
	_, serveChildRun := serveWorkloads[*child]
	if serveRun || serveChildRun {
		runtime.GOMAXPROCS(serveProcs)
	}
	if *child != "" {
		if _, ok := fitWorkloads[*child]; ok {
			return fitChild(*root, *build, *child, *setup)
		}
		if w, ok := serveWorkloads[*child]; ok {
			return serveChild(w, *seed, time.Duration(*seconds)*time.Second)
		}
		return fmt.Errorf("unknown workload %q", *child)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o := options{
		ctx:      ctx,
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traced == 1,
		root:     *root,
		build:    *build,
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	var runner func(options) (result, error)
	_, isFit := fitWorkloads[o.workload]
	_, isServe := serveWorkloads[o.workload]
	switch {
	case isFit && o.trace:
		runner = fitTraced
	case isFit:
		runner = fitTimed
	case isServe && o.trace:
		runner = serveTraced
	case isServe:
		runner = serveTimed
	default:
		return fmt.Errorf("unknown workload %q (want fit-bigdata, fit-hpc, serve-hot or serve-cold)", o.workload)
	}
	// The fit workloads read their goldens at set-up; check the tree
	// before spending time.
	if _, err := os.Stat(filepath.Join(o.root, "results", "manifest.json")); err != nil {
		return fmt.Errorf("not a repository checkout: %w", err)
	}
	host := hostRecord(o.root)
	hostLine, err := json.Marshal(map[string]any{"host": host, "workload": o.workload, "seed": o.seed, "trace": o.trace})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(hostLine))

	res, err := runner(o)
	if err != nil {
		return err
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if res.Metrics, err = withUnits(res.values, defs, o.trace); err != nil {
		return err
	}
	if _, err := json.Marshal(res.info); err != nil {
		// Diagnostics that JSON cannot hold (an infinite tail) must not
		// cost the result.
		res.info = map[string]any{"info_error": err.Error()}
	}
	rec := record{Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds.Seconds(), Host: host, Info: res.info, Result: res}
	if err := saveRecord(o, rec); err != nil {
		return err
	}
	if o.trace {
		if err := saveSpans(o, res.spans); err != nil {
			return err
		}
	}
	if info, err := json.Marshal(res.info); err == nil {
		fmt.Fprintln(stdout, string(info))
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(last))
	return nil
}

// saveRecord appends the run to <build>/results/<workload>.jsonl.
func saveRecord(o options, rec record) error {
	dir := filepath.Join(o.build, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, o.workload+".jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// saveSpans writes the traced run's spans to
// <build>/traces/<workload>-seed<N>.json.
func saveSpans(o options, spans []Span) error {
	dir := filepath.Join(o.build, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)), b, 0o644)
}

// parseProm reads Prometheus text exposition lines into name{labels} →
// value.
func parseProm(r io.Reader) (map[string]float64, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// metricDef is one metric as BENCHMARK.json lists it; a test keeps the
// file and these tables in step.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"workloads.self_s", "s", "lower"},
	{"workloads.ns_per_block", "ns", "lower"},
	{"cache.self_s", "s", "lower"},
	{"cache.ns_per_access", "ns", "lower"},
	{"cache.accesses_per_kinstr", "count", "lower"},
	{"cache.l1_hit_ratio", "ratio", "higher"},
	{"cache.llc_hit_ratio", "ratio", "higher"},
	{"cache.pref_useful_ratio", "ratio", "higher"},
	{"cache.floor_ns_per_access", "ns", "lower"},
	{"cache.over_floor", "ratio", "lower"},
	{"memsys.self_s", "s", "lower"},
	{"memsys.ns_per_access", "ns", "lower"},
	{"memsys.accesses_per_kinstr", "count", "lower"},
	{"memsys.queue_ns", "ns", "lower"},
	{"memsys.utilization", "ratio", "higher"},
	{"memsys.floor_ns_per_access", "ns", "lower"},
	{"memsys.over_floor", "ratio", "lower"},
	{"pmu.self_s", "s", "lower"},
	{"sim.minstr_per_s", "Minstr/s", "higher"},
	{"sim.run_s_p50", "s", "lower"},
	{"pmu.samples", "count", "lower"},
	{"engine.self_s", "s", "lower"},
	{"engine.busy_share", "ratio", "higher"},
	{"engine.peak_parallel", "count", "higher"},
	{"experiments.fit_ms", "ms", "lower"},
	{"experiments.render_ms", "ms", "lower"},
	{"simcache.hit_ratio", "ratio", "higher"},
	{"simcache.misses", "count", "lower"},
	{"client.attempts_per_call", "count", "lower"},
	{"client.overhead_us_p50", "us", "lower"},
	{"serve.p50_ms", "ms", "lower"},
	{"serve.p99_ms", "ms", "lower"},
	{"serve.max_rps", "1/s", "higher"},
	{"serve.handler_us_p50", "us", "lower"},
	{"serve.handler_us_p99", "us", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.cache_evictions", "count", "lower"},
	{"serve.shed_ratio", "ratio", "lower"},
	{"serve.resp_bytes_mean", "bytes", "lower"},
	{"model.evaluate_us_p50", "us", "lower"},
	{"solve.iterations_per_solve", "count", "lower"},
	{"solve.fallbacks", "count", "lower"},
	{"cluster.simulate_ms_p50", "ms", "lower"},
	{"cluster.events_per_s", "1/s", "higher"},
	{"runtime.allocs_per_req", "count", "lower"},
	{"runtime.allocs_per_minstr", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"bench.gen_late_ms_p99", "ms", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
	{"bench.residual_frac", "ratio", "lower"},
	{"bench.fail_frac", "ratio", "lower"},
	{"host.state_latency_ns", "ns", "lower"},
	{"host.state_gbps", "GB/s", "higher"},
	{"host.cache_gbps", "GB/s", "higher"},
}

// withUnits turns a run's values into the metrics of the table it must
// report: every metric once, with the table's unit, nothing else. With
// fillMissing, a layer the workload does not exercise did no work and
// reads 0.
func withUnits(values map[string]float64, defs []metricDef, fillMissing bool) (metrics, error) {
	out := metrics{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !fillMissing {
			return nil, fmt.Errorf("internal: metric %s not measured", d.name)
		}
		// JSON has no infinities: a tail made of failed requests reads
		// as the largest number, and a ratio over nothing as 0.
		switch {
		case math.IsInf(v, 0):
			v = math.MaxFloat64
		case math.IsNaN(v):
			v = 0
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("internal: metric %s is not listed", name)
		}
	}
	return out, nil
}
