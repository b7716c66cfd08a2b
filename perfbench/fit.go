package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/units"
	"repro/internal/workloads"
)

// fitWorkload is one regeneration workload: the experiments cmd/repro
// runs for it, whose artifacts are checked against the committed
// goldens.
type fitWorkload struct {
	ids []string
	// sampled rebuilds the fig2 time-series run (PMU sampling on) of each
	// fitted workload in the traced run; otherwise the first grid point
	// of its scaling fit.
	sampled bool
}

var fitWorkloads = map[string]fitWorkload{
	"fit-bigdata": {ids: []string{"fig2", "fig3", "table2", "table3"}, sampled: true},
	"fit-hpc":     {ids: []string{"table5"}},
}

// simCacheCapacity matches cmd/repro's in-memory measurement cache.
const simCacheCapacity = 4096

// goldenFile is one expected artifact from results/manifest.json.
type goldenFile struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
}

// loadGolden reads the expected artifacts of ids from the committed
// manifest. The manifest is only read.
func loadGolden(root string, ids []string) ([]goldenFile, error) {
	blob, err := os.ReadFile(filepath.Join(root, "results", "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("read goldens: %w", err)
	}
	var man struct {
		Experiments []struct {
			ID    string       `json:"id"`
			Files []goldenFile `json:"files"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(blob, &man); err != nil {
		return nil, fmt.Errorf("parse goldens: %w", err)
	}
	var out []goldenFile
	for _, id := range ids {
		found := false
		for _, e := range man.Experiments {
			if e.ID == id {
				out = append(out, e.Files...)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("goldens: no experiment %q in manifest", id)
		}
	}
	return out, nil
}

// checkArtifacts hashes every file in dir that the goldens name and
// counts the ones missing or different, plus any artifact the goldens
// do not name. manifest.json and README.md are the sink's own indexes,
// not artifacts.
func checkArtifacts(dir string, golden []goldenFile) (failed int, problems []string) {
	want := map[string]bool{}
	for _, g := range golden {
		want[g.Name] = true
		b, err := os.ReadFile(filepath.Join(dir, g.Name))
		if err != nil {
			failed++
			problems = append(problems, g.Name+": missing")
			continue
		}
		sum := sha256.Sum256(b)
		if hex.EncodeToString(sum[:]) != g.SHA256 {
			failed++
			problems = append(problems, g.Name+": sha256 differs from golden")
		}
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.Name() != "manifest.json" && e.Name() != "README.md" && !want[e.Name()] {
			failed++
			problems = append(problems, e.Name()+": not in goldens")
		}
	}
	return failed, problems
}

// fitSetup is the work before the first timed operation: reading the
// goldens and building the suite, its measurement cache and the
// registry, as cmd/repro does with its defaults.
type fitSetup struct {
	golden []goldenFile
	scale  experiments.Scale
	reg    *engine.Registry
}

func newFitSetup(root string, w fitWorkload) (fitSetup, error) {
	golden, err := loadGolden(root, w.ids)
	if err != nil {
		return fitSetup{}, err
	}
	scale := experiments.Full()
	c, err := simcache.New(simCacheCapacity, "")
	if err != nil {
		return fitSetup{}, err
	}
	scale.SimCache = c
	reg := experiments.NewSuite(scale).Registry()
	if _, err := reg.Resolve(w.ids); err != nil {
		return fitSetup{}, err
	}
	return fitSetup{golden: golden, scale: scale, reg: reg}, nil
}

// fitChildResult is one engine run, reported by a child process.
type fitChildResult struct {
	SetupS   float64   `json:"setup_s"`
	WallS    float64   `json:"wall_s"`
	CPUS     float64   `json:"cpu_s"`
	Files    int       `json:"files"`
	Failed   int       `json:"failed"`
	ReadyMS  []float64 `json:"ready_ms"`
	Problems []string  `json:"problems,omitempty"`
}

// runFitEngine runs the engine once over a sink in outDir — the same
// calls cmd/repro makes, with workers = NumCPU — and checks the written
// artifacts. ReadyMS holds, per golden artifact, when its experiment's
// result arrived, measured from the start of the run.
func runFitEngine(ctx context.Context, fs fitSetup, w fitWorkload, outDir string, reg *engine.Registry) (fitChildResult, engine.RunResult, error) {
	var res fitChildResult
	if err := os.RemoveAll(outDir); err != nil {
		return res, engine.RunResult{}, err
	}
	sink, err := engine.NewDirSink(outDir)
	if err != nil {
		return res, engine.RunResult{}, err
	}
	workers := runtime.NumCPU()
	var ready []float64
	var sinkErrs []string
	cpu0 := cpuTime()
	start := time.Now()
	rr, err := engine.Run(ctx, reg, w.ids, engine.Options{
		Workers: workers,
		OnResult: func(r engine.ExperimentResult) {
			at := float64(time.Since(start).Nanoseconds()) / 1e6
			if r.Err == nil {
				n := 1 + len(r.Artifact.Tables) + len(r.Artifact.Charts)
				for i := 0; i < n; i++ {
					ready = append(ready, at)
				}
			} else {
				sinkErrs = append(sinkErrs, r.ID+": "+r.Err.Error())
			}
			if err := sink.Write(r); err != nil {
				sinkErrs = append(sinkErrs, err.Error())
			}
		},
	})
	if err != nil {
		return res, rr, err
	}
	sink.RecordRun(rr, workers)
	if err := sink.Close(); err != nil {
		sinkErrs = append(sinkErrs, err.Error())
	}
	res.WallS = time.Since(start).Seconds()
	res.CPUS = (cpuTime() - cpu0).Seconds()
	res.ReadyMS = ready
	res.Files = len(fs.golden)
	res.Failed, res.Problems = checkArtifacts(outDir, fs.golden)
	res.Problems = append(res.Problems, sinkErrs...)
	if res.Failed == 0 && len(sinkErrs) > 0 {
		res.Failed = 1
	}
	return res, rr, os.RemoveAll(outDir)
}

// fitChild is the body of one timed child process: set up, run the
// engine once (unless setupOnly), print the result as one JSON line.
// Its set-up time is the CPU time the process has used when the set-up
// ends: runtime and package initialisation, reading the goldens and
// building the suite and registry.
func fitChild(root, build, name string, setupOnly bool) error {
	w := fitWorkloads[name]
	fs, err := newFitSetup(root, w)
	if err != nil {
		return err
	}
	setup := cpuTime().Seconds()
	if setupOnly {
		return json.NewEncoder(os.Stdout).Encode(fitChildResult{SetupS: setup})
	}
	out := filepath.Join(build, "out", fmt.Sprintf("%s-%d", name, os.Getpid()))
	res, _, err := runFitEngine(context.Background(), fs, w, out, fs.reg)
	if err != nil {
		return err
	}
	res.SetupS = setup
	return json.NewEncoder(os.Stdout).Encode(res)
}

// setupReps is how many times a timed run repeats its set-up to report
// a median.
//
// Set-up time is the process CPU time (user and system) set-up takes. It
// shows work moved into set-up as well as wall time would, but the wall
// time of set-ups this short (mostly wake-ups of warm-up requests for
// the serve workloads) varied by 2x between runs on a 2-vCPU host.
const setupReps = 31

// fitSetupChildren is how many extra processes a fit run starts only to
// time their set-up, so the median has enough samples when few engine
// runs fit in the measuring time.
const fitSetupChildren = 9

// fitTimed runs fresh child processes, one engine run each, until the
// measuring time is used (at least one), and reports medians.
func fitTimed(o options) (result, error) {
	var setups []float64
	for i := 0; i < fitSetupChildren; i++ {
		cr, _, err := spawnFitChild(o, true)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, cr.SetupS)
	}
	var walls, cpus, rss []float64
	var res result
	var readyMS [][]float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < o.seconds {
		cr, peak, err := spawnFitChild(o, false)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, cr.SetupS)
		res.Attempted += cr.Files
		res.Failed += cr.Failed
		for _, p := range cr.Problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", o.workload, p)
		}
		walls = append(walls, cr.WallS)
		cpus = append(cpus, cr.CPUS)
		rss = append(rss, peak)
		readyMS = append(readyMS, cr.ReadyMS)
	}
	res.Correct = res.Failed == 0
	res.values = map[string]float64{
		"setup_s":     median(setups),
		"wall_s":      median(walls),
		"cpu_s":       median(cpus),
		"peak_rss_mb": median(rss),
	}
	res.info = map[string]any{
		"runs":        len(walls),
		"wall_s_runs": walls,
		"ready_ms":    readyMS,
		"note":        "one attempted operation is one golden artifact; ready_ms is when each run's artifacts were ready, from the start of its engine run",
	}
	return res, nil
}

// spawnFitChild runs one engine run (or only its set-up) in a fresh
// process and returns its result and peak resident set in MiB.
func spawnFitChild(o options, setupOnly bool) (fitChildResult, float64, error) {
	args := []string{"-child", o.workload}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	var cr fitChildResult
	peak, err := spawnChild(o, args, &cr)
	return cr, peak, err
}

// spawnChild runs this program again with the run's root and build
// directory and args, decodes the last line it prints into v and returns
// the child's peak resident set in MiB.
func spawnChild(o options, args []string, v any) (float64, error) {
	args = append([]string{"-root", o.root, "-build", o.build}, args...)
	cmd := exec.CommandContext(o.ctx, os.Args[0], args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("child %s: %w", o.workload, err)
	}
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var last string
	for sc.Scan() {
		last = sc.Text()
	}
	if err := json.Unmarshal([]byte(last), v); err != nil {
		return 0, fmt.Errorf("child %s: bad result: %w", o.workload, err)
	}
	peak := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peak = float64(ru.Maxrss) / 1024
	}
	return peak, nil
}

// rebuildConfig is the machine config of the engine run the trace
// rebuilds for one fitted workload: fig2's sampled 2.5 GHz run, or the
// first point of the scaling grid.
func rebuildConfig(w workloads.Workload, scale experiments.Scale, sampled bool) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Threads = w.FitThreads()
	sc := experiments.PaperScalingConfigs()[0]
	if sampled {
		sc = experiments.ScalingConfig{CoreGHz: 2.5, Grade: memsys.DDR3_1867}
		cfg.SampleInterval = scale.SampleInterval
	}
	cfg.Core.Freq = units.GHzOf(sc.CoreGHz)
	cfg.Mem.Grade = sc.Grade
	return cfg
}

// fitTraced is the traced run: the engine run with a span around every
// experiment and fit, then, per fitted workload, one machine run rebuilt
// from public pieces, checked against sim.Machine.Run and split into
// layers by replay.
func fitTraced(o options) (result, error) {
	ctx := context.Background()
	w := fitWorkloads[o.workload]
	fs, err := newFitSetup(o.root, w)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	// The engine's root span is the first one recorded (index 0); the
	// wrapped experiments and fits record only once the engine runs.
	reg, fitted, err := tracedRegistry(fs.reg, w.ids, tr, 0)
	if err != nil {
		return result{}, err
	}
	first, err := workloads.ByName(fitted[0])
	if err != nil {
		return result{}, err
	}
	stateCfg := rebuildConfig(first, fs.scale, w.sampled)
	hm := measureHostMemory(cacheStateBytes(stateCfg))

	root := tr.begin("engine.run", -1, 0)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	er, rr, err := runFitEngine(ctx, fs, w, filepath.Join(o.build, "out", fmt.Sprintf("%s-trace-%d", o.workload, os.Getpid())), reg)
	tr.finish(root)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return result{}, err
	}
	for _, p := range er.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", o.workload, p)
	}
	res := result{Attempted: er.Files, Failed: er.Failed}

	engineSpans := tr.snapshot()
	self := selfTimes(engineSpans)
	var fitMS, renderMS []float64
	busy := int64(0)
	for _, s := range engineSpans[1:] {
		d := s.End - s.Start
		busy += d
		switch s.Name {
		case "experiments.fit":
			fitMS = append(fitMS, float64(d)/1e6)
		case "experiments.render":
			renderMS = append(renderMS, float64(d)/1e6)
		}
	}
	engineWall := engineSpans[0].End - engineSpans[0].Start
	st := fs.scale.SimCache.Stats()
	machineInstr := float64(fs.scale.WarmupInstr + fs.scale.MeasureInstr)

	// Rebuilt machine runs, checked against sim.Machine.Run and timed
	// layer by layer through replays.
	var refS []float64
	var refTotal, recTotal float64
	layer := map[string]float64{}
	var steps, refs, memCalls, allInstr, samples uint64
	var agg rebuiltResult
	var queueNS, queueN, util float64
	var spans []Span
	spans = append(spans, engineSpans...)
	for i, name := range fitted {
		wl, err := workloads.ByName(name)
		if err != nil {
			return result{}, err
		}
		cfg := rebuildConfig(wl, fs.scale, w.sampled)
		m, err := sim.New(cfg, name, wl)
		if err != nil {
			return result{}, err
		}
		t0 := time.Now()
		meas, err := m.Run(ctx, fs.scale.WarmupInstr, fs.scale.MeasureInstr)
		d := time.Since(t0).Seconds()
		if err != nil {
			return result{}, err
		}
		refS = append(refS, d)
		refTotal += d

		lay, why, err := rebuildAndReplay(ctx, tr.origin, uint64(i+1), cfg, wl, fs.scale, meas)
		if err != nil {
			return result{}, err
		}
		res.Attempted++
		if why != "" {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: rebuilt %s differs from sim.Machine.Run: %s\n", name, why)
		}
		recTotal += lay.recordS
		for k, v := range lay.self {
			layer[k] += v
		}
		spans = append(spans, lay.spans...)
		steps += lay.steps
		refs += lay.refs
		memCalls += lay.memCalls
		allInstr += lay.instr
		samples += uint64(len(meas.Series.Samples))
		for l := range meas.Cache.Levels {
			if len(agg.Cache.Levels) <= l {
				agg.Cache.Levels = append(agg.Cache.Levels, meas.Cache.Levels[l])
				continue
			}
			agg.Cache.Levels[l].Accesses += meas.Cache.Levels[l].Accesses
			agg.Cache.Levels[l].Hits += meas.Cache.Levels[l].Hits
		}
		agg.Cache.PrefIssued += meas.Cache.PrefIssued
		agg.Cache.PrefHits += meas.Cache.PrefHits
		queueNS += float64(meas.Mem.TotalQueueDelay)
		queueN += float64(meas.Mem.Reads + meas.Mem.Writes)
		util += meas.Utilization1
	}
	n := float64(len(fitted))
	covered := layer["workloads"] + layer["cache"] + layer["memsys"] + layer["pmu"]
	l1, llc := agg.Cache.Levels[0], agg.Cache.Levels[len(agg.Cache.Levels)-1]
	cacheNS := layer["cache"] / float64(refs)
	memNS := layer["memsys"] / float64(memCalls)
	cf, mf := accessFloors(hm, stateCfg.Cache, agg.Cache)

	res.Correct = res.Failed == 0
	res.values = map[string]float64{
		"workloads.self_s":           layer["workloads"] / 1e9,
		"workloads.ns_per_block":     layer["workloads"] / float64(steps),
		"cache.self_s":               layer["cache"] / 1e9,
		"cache.ns_per_access":        cacheNS,
		"cache.accesses_per_kinstr":  float64(refs) / (float64(allInstr) / 1000),
		"cache.l1_hit_ratio":         safeDiv(float64(l1.Hits), float64(l1.Accesses)),
		"cache.llc_hit_ratio":        safeDiv(float64(llc.Hits), float64(llc.Accesses)),
		"cache.pref_useful_ratio":    safeDiv(float64(agg.Cache.PrefHits), float64(agg.Cache.PrefIssued)),
		"cache.floor_ns_per_access":  cf,
		"cache.over_floor":           cacheNS / cf,
		"memsys.self_s":              layer["memsys"] / 1e9,
		"memsys.ns_per_access":       memNS,
		"memsys.accesses_per_kinstr": float64(memCalls) / (float64(allInstr) / 1000),
		"memsys.queue_ns":            queueNS / queueN,
		"memsys.utilization":         util / n,
		"memsys.floor_ns_per_access": mf,
		"memsys.over_floor":          memNS / mf,
		"pmu.self_s":                 layer["pmu"] / 1e9,
		"sim.minstr_per_s":           float64(allInstr) / 1e6 / refTotal,
		"sim.run_s_p50":              median(refS),
		"pmu.samples":                float64(samples),
		"engine.busy_share":          float64(busy) / (float64(engineWall) * float64(runtime.NumCPU())),
		"engine.self_s":              float64(self["engine.run"]) / 1e9,
		"engine.peak_parallel":       float64(rr.MaxParallel),
		"experiments.fit_ms":         median(fitMS),
		"experiments.render_ms":      median(renderMS),
		"simcache.hit_ratio":         st.HitRatio(),
		"simcache.misses":            float64(st.Misses),
		"runtime.allocs_per_minstr":  float64(ms1.Mallocs-ms0.Mallocs) / (float64(st.Misses) * machineInstr / 1e6),
		"runtime.gc_cpu_frac":        ms1.GCCPUFraction,
		"bench.trace_overhead_frac":  (recTotal - refTotal) / refTotal,
		"bench.residual_frac":        (refTotal*1e9 - covered) / (refTotal * 1e9),
		"bench.fail_frac":            float64(res.Failed) / float64(res.Attempted),
		"host.state_latency_ns":      hm.LatencyNS,
		"host.state_gbps":            hm.StateGBps,
		"host.cache_gbps":            hm.CacheGBps,
	}
	res.info = map[string]any{
		"fitted":        fitted,
		"state_bytes":   hm.StateBytes,
		"engine_wall_s": float64(engineWall) / 1e9,
		"rebuilt_steps": steps,
		"residual_note": "bench.residual_frac is the share of the untraced sim.Machine.Run wall time that the layers timed apart by replay do not cover: what the layers cost together beyond their costs alone",
		"floor_note":    "floors are ECM-style data-transfer plus dependent-miss times of the simulator state one call touches, from the host probe at start",
		"recording_s":   recTotal,
		"simcache_note": "the sim cache starts cold, so each simcache miss is one sim.Machine run",
	}
	res.spans = spans
	return res, nil
}

// tracedRegistry copies the experiments ids and every resource they
// reach into a new registry whose functions record a span under parent.
// It returns the fitted workload names, in first-dependency order.
func tracedRegistry(src *engine.Registry, ids []string, tr *Tracer, parent int) (*engine.Registry, []string, error) {
	exps, err := src.Resolve(ids)
	if err != nil {
		return nil, nil, err
	}
	reg := engine.NewRegistry()
	seen := map[string]bool{}
	var fitted []string
	var addRes func(name string) error
	addRes = func(name string) error {
		if seen[name] {
			return nil
		}
		seen[name] = true
		res, ok := src.Resource(name)
		if !ok {
			return fmt.Errorf("unknown resource %q", name)
		}
		for _, d := range res.Deps {
			if err := addRes(d); err != nil {
				return err
			}
		}
		span := "experiments.curve"
		if w, ok := strings.CutPrefix(name, "fit:"); ok {
			span = "experiments.fit"
			fitted = append(fitted, w)
		}
		prepare := res.Prepare
		res.Prepare = func(ctx context.Context) error {
			i := tr.begin(span, parent, 0)
			defer tr.finish(i)
			return prepare(ctx)
		}
		return reg.RegisterResource(res)
	}
	for _, e := range exps {
		for _, d := range e.Deps {
			if err := addRes(d); err != nil {
				return nil, nil, err
			}
		}
		run := e.Run
		e.Run = func(ctx context.Context) (engine.Artifact, error) {
			i := tr.begin("experiments.render", parent, 0)
			defer tr.finish(i)
			return run(ctx)
		}
		if err := reg.Register(e); err != nil {
			return nil, nil, err
		}
	}
	sort.Strings(fitted)
	return reg, fitted, nil
}

// Floors in the spirit of the ECM model: the time the host needs just to
// move the simulator state one call touches, at the latency and
// bandwidth measured for a buffer of that state's size.

// stateBytesPerWay is what one cache way costs in the simulator's
// struct-of-arrays levels: tag, LRU stamp and prefetch-ready time (8 B
// each) and a flag byte.
const stateBytesPerWay = 8 + 8 + 8 + 1

// cacheStateBytes is the size of every thread's cache-level arrays.
func cacheStateBytes(cfg sim.Config) int {
	total := 0
	for _, l := range cfg.Cache.Levels {
		total += int(l.Size) / int(cfg.Cache.LineSize) * stateBytesPerWay
	}
	return total * cfg.Threads
}

// probeBytes is the state one lookup in a level of associativity assoc
// touches: the set's ways in the three 8-byte arrays and the flag
// array, in whole 64-byte host lines.
func probeBytes(assoc int) float64 {
	lines := func(b int) int { return (b + 63) / 64 }
	return float64(64 * (3*lines(assoc*8) + lines(assoc)))
}

// memsysCallBytes is the state one memsys access touches: one channel's
// entry in four per-channel arrays, the counters and the RNG, in whole
// host lines. It is small and reused, so it moves at cache bandwidth.
const memsysCallBytes = 64 * (4 + 2 + 1)

// accessFloors returns the floor per cache access (one dependent load of
// the state for the L1 tag scan, plus each level's probe bytes weighted
// by how often an access reaches that level) and per memsys access.
func accessFloors(hm hostMemory, cfg cache.Config, c cache.Counters) (cacheNS, memNS float64) {
	l0 := float64(c.Levels[0].Accesses)
	cacheNS = hm.LatencyNS
	for i, l := range cfg.Levels {
		cacheNS += float64(c.Levels[i].Accesses) / l0 * probeBytes(l.Assoc) / hm.StateGBps
	}
	return cacheNS, memsysCallBytes / hm.CacheGBps
}

// layerTimes is one rebuilt run's split.
type layerTimes struct {
	self                         map[string]float64 // ns per layer
	spans                        []Span
	recordS                      float64
	steps, refs, memCalls, instr uint64
}

// rebuildAndReplay records the rebuilt run of cfg, checks it against the
// real run's measurement, and times each layer alone by replay:
// workloads from the generators alone, memsys from the recorded calls
// alone, and cache (with the core loop and the event loop) from the
// machine replayed against the recorded results, less the generators'
// and the PMU's share of it. A non-empty reason names the first
// disagreement with sim.Machine.Run.
func rebuildAndReplay(ctx context.Context, origin time.Time, id uint64, cfg sim.Config, wl workloads.Workload, scale experiments.Scale, meas sim.Measurement) (layerTimes, string, error) {
	var lt layerTimes
	ms, err := memsys.NewSimulator(cfg.Mem)
	if err != nil {
		return lt, "", err
	}
	rec := &recordingMemory{sim: ms}
	recorder, err := newRebuilt(cfg, wl, rec)
	if err != nil {
		return lt, "", err
	}
	warmCalls := 0
	var sampledMem []memsys.Counters
	recorder.onReset = func() {
		ms.ResetCounters()
		warmCalls = len(rec.calls)
	}
	tr := &Tracer{origin: origin}
	got, err := recorder.run(ctx, tr, id, scale.WarmupInstr, scale.MeasureInstr, func() memsys.Counters {
		c := ms.Counters()
		sampledMem = append(sampledMem, c)
		return c
	})
	if err != nil {
		return lt, "", err
	}
	got.Mem = ms.Counters()
	recSpans := tr.snapshot()
	lt.recordS = float64(recSpans[0].End-recSpans[0].Start) / 1e9
	why := rebuildMismatch(meas, got)

	instr := replayWorkloads(cfg, wl, recorder.schedule, tr, id)
	if why == "" && instr != recorder.allInstr {
		why = "workload replay produced different blocks"
	}
	mc, same, err := replayMemsys(cfg.Mem, rec, warmCalls, tr, id)
	if err != nil {
		return lt, "", err
	}
	if why == "" && (!same || mc != meas.Mem) {
		why = "memsys replay differs from the recorded run"
	}
	rm := &replayMemory{rec: rec}
	replayer, err := newRebuilt(cfg, wl, rm)
	if err != nil {
		return lt, "", err
	}
	replayer.onReset = func() {}
	k := 0
	trRep := &Tracer{origin: origin}
	again, err := replayer.run(ctx, trRep, id, scale.WarmupInstr, scale.MeasureInstr, func() memsys.Counters {
		if k == len(sampledMem) {
			return memsys.Counters{} // a diverged replay; its series will differ
		}
		k++
		return sampledMem[k-1]
	})
	if err != nil {
		return lt, "", err
	}
	again.Mem = meas.Mem
	if why == "" && (rm.diverged || rm.i != len(rec.calls)) {
		why = "machine replay made different memsys calls"
	}
	if why == "" {
		if w := rebuildMismatch(meas, again); w != "" {
			why = "machine replay: " + w
		}
	}

	spans, repSpans := tr.snapshot(), trRep.snapshot()
	self, replaySelf := selfTimes(spans), selfTimes(repSpans)
	replayRoot := float64(repSpans[0].End - repSpans[0].Start)
	workloadsNS := float64(self["workloads.next_block"])
	pmuNS := float64(replaySelf["pmu.record"])
	lt.self = map[string]float64{
		"workloads": workloadsNS,
		"memsys":    float64(self["memsys.access"]),
		"pmu":       pmuNS,
		"cache":     replayRoot - workloadsNS - pmuNS,
	}
	lt.spans = spans
	for _, sp := range repSpans {
		if sp.Parent >= 0 {
			sp.Parent += len(spans)
		}
		sp.Name = strings.Replace(sp.Name, "sim.run", "sim.replay", 1)
		lt.spans = append(lt.spans, sp)
	}
	lt.steps = uint64(len(recorder.schedule))
	lt.refs = recorder.refs
	lt.memCalls = uint64(len(rec.calls))
	lt.instr = recorder.allInstr
	return lt, why, nil
}
