package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/memsys"
	"repro/internal/pmu"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// The rebuilt machine reassembles one sim.Machine run from the
// simulator's public pieces — the workload's generators, cpu.Core,
// cache.Hierarchy and memsys.Simulator — so each layer can be timed from
// outside. It makes exactly the calls sim.Machine.Run makes, in the same
// order; rebuildMismatch asserts that its counters equal the real run's.
//
// A clock read costs about as much as one memsys call and, inside the
// simulator's memory-bound loop, stalls the overlap of the loads around
// it, so timing calls one by one inflates them by more than their own
// cost. The layers are instead timed whole, by replay: a recording run
// keeps the thread schedule and every memsys call with its result; the
// generators then replay the schedule alone, the memsys calls replay on a
// fresh simulator alone, and the machine replays against the recorded
// results with no memsys work. Each replay is spanned in chunks.

// Constants sim.Machine uses for generator seeding and I/O placement.
const (
	machineDefaultSeed uint64 = 0xC0FFEE
	machineSeedStride  uint64 = 0x9E37
	machineIOBase      uint64 = 1 << 44
	machineIORing      uint64 = 1 << 18
)

// memCall is one recorded call into memsys.
type memCall struct {
	now  units.Duration
	addr uint64
	op   memsys.Op
}

// recordingMemory forwards every call to the simulator and records it
// with its result.
type recordingMemory struct {
	sim     *memsys.Simulator
	calls   []memCall
	results []memsys.Result
}

func (m *recordingMemory) Access(now units.Duration, addr uint64, op memsys.Op) memsys.Result {
	r := m.sim.Access(now, addr, op)
	m.calls = append(m.calls, memCall{now, addr, op})
	m.results = append(m.results, r)
	return r
}

// replayMemory answers each call with the recorded result, so the cache
// and core layers run without memsys work. A call that differs from the
// recording marks the replay diverged.
type replayMemory struct {
	rec      *recordingMemory
	i        int
	diverged bool
}

func (m *replayMemory) Access(now units.Duration, addr uint64, op memsys.Op) memsys.Result {
	if m.i >= len(m.rec.calls) || m.rec.calls[m.i] != (memCall{now, addr, op}) {
		m.diverged = true
		return memsys.Result{}
	}
	m.i++
	return m.rec.results[m.i-1]
}

// rebuilt is the reassembled machine over a recording or replaying
// memory.
type rebuilt struct {
	cfg     sim.Config
	mem     cache.Memory
	onReset func() // called when the measured phase starts
	cores   []*cpu.Core
	gens    []trace.Generator
	blocks  []trace.Block
	heap    []int
	instr   uint64
	ioLines uint64

	schedule []uint8 // thread of each step
	allInstr uint64
	refs     uint64
}

// ioSink mirrors sim.Machine's DMA path: I/O writes successive lines of
// a ring far above the workloads' address space.
type ioSink struct{ r *rebuilt }

func (s ioSink) DMA(now units.Duration, bytes float64) {
	lineSize := uint64(s.r.cfg.Mem.LineSize)
	n := uint64(math.Ceil(bytes / float64(lineSize)))
	for i := uint64(0); i < n; i++ {
		addr := machineIOBase + (s.r.ioLines%machineIORing)*lineSize
		s.r.ioLines++
		s.r.mem.Access(now, addr, memsys.Write)
	}
}

func newRebuilt(cfg sim.Config, factory sim.GeneratorFactory, mem cache.Memory) (*rebuilt, error) {
	r := &rebuilt{cfg: cfg, mem: mem}
	r.gens = newGenerators(cfg, factory)
	for t := 0; t < cfg.Threads; t++ {
		h, err := cache.New(cfg.Cache, mem)
		if err != nil {
			return nil, err
		}
		c, err := cpu.New(cfg.Core, h, ioSink{r})
		if err != nil {
			return nil, err
		}
		r.cores = append(r.cores, c)
		r.heap = append(r.heap, t)
	}
	r.blocks = make([]trace.Block, cfg.Threads)
	return r, nil
}

// newGenerators seeds one generator per thread as sim.Machine does.
func newGenerators(cfg sim.Config, factory sim.GeneratorFactory) []trace.Generator {
	seed := cfg.Seed
	if seed == 0 {
		seed = machineDefaultSeed
	}
	gens := make([]trace.Generator, cfg.Threads)
	for t := range gens {
		gens[t] = factory.NewGenerator(t, seed+uint64(t)*machineSeedStride)
	}
	return gens
}

// before orders threads least-advanced first, lower index on ties — the
// order sim.Machine's event heap keeps.
func (r *rebuilt) before(a, b int) bool {
	ta, tb := r.cores[a].Now(), r.cores[b].Now()
	return ta < tb || (ta == tb && a < b)
}

func (r *rebuilt) siftDown() {
	n := len(r.heap)
	i := 0
	for {
		l, rt := 2*i+1, 2*i+2
		least := i
		if l < n && r.before(r.heap[l], r.heap[least]) {
			least = l
		}
		if rt < n && r.before(r.heap[rt], r.heap[least]) {
			least = rt
		}
		if least == i {
			return
		}
		r.heap[i], r.heap[least] = r.heap[least], r.heap[i]
		i = least
	}
}

func (r *rebuilt) minNow() units.Duration { return r.cores[r.heap[0]].Now() }

// step advances the least-advanced thread by one block.
func (r *rebuilt) step() {
	t := r.heap[0]
	b := &r.blocks[t]
	b.Reset()
	r.gens[t].NextBlock(b)
	r.cores[t].RunBlock(b)
	r.instr += b.Instructions
	r.allInstr += b.Instructions
	r.refs += uint64(len(b.Refs))
	r.schedule = append(r.schedule, uint8(t))
	r.siftDown()
}

func (r *rebuilt) snapshot(start units.Duration, mc memsys.Counters) pmu.Snapshot {
	var s pmu.Snapshot
	freq := r.cfg.Core.Freq
	for _, c := range r.cores {
		ctr := c.Counters()
		s.Instructions += ctr.Instructions
		s.Cycles += ctr.Cycles(freq)
		s.BusyNS += ctr.BusyNS
		s.IOBytes += ctr.IOBytes
	}
	s.WallNS = float64(r.minNow()-start) * float64(r.cfg.Threads)
	s.MemBytes = float64(mc.BytesRead + mc.BytesWritten)
	return s
}

// rebuiltResult is what one rebuilt run reports: the measured-phase
// counters sim.Measurement carries.
type rebuiltResult struct {
	Instructions uint64
	Cache        cache.Counters
	Mem          memsys.Counters
	Series       pmu.Series
	WallTime     units.Duration
}

// run executes warm-up then measurement exactly as sim.Machine.Run does,
// recording a root span and one span per PMU sample. memCounters reads
// the memory counters the PMU snapshots need: the live simulator's when
// recording, the recorded ones when replaying.
func (r *rebuilt) run(ctx context.Context, tr *Tracer, id uint64, warmupInstr, measureInstr uint64, memCounters func() memsys.Counters) (rebuiltResult, error) {
	if err := ctx.Err(); err != nil {
		return rebuiltResult{}, err
	}
	root := tr.begin("sim.run", -1, id)
	for r.instr < warmupInstr {
		r.step()
	}
	for _, c := range r.cores {
		c.ResetCounters()
	}
	r.onReset()
	r.instr = 0

	start := r.minNow()
	sampler := pmu.NewSampler(r.cfg.SampleInterval)
	sampler.Record(start, r.snapshot(start, memCounters()))
	next := start + r.cfg.SampleInterval
	for r.instr < measureInstr {
		r.step()
		if sampler.Enabled() {
			for now := r.minNow(); now >= next; next += r.cfg.SampleInterval {
				i := tr.begin("pmu.record", root, id)
				sampler.Record(next, r.snapshot(start, memCounters()))
				tr.finish(i)
			}
		}
	}
	tr.finish(root)

	res := rebuiltResult{WallTime: r.minNow() - start, Series: sampler.Series()}
	res.Cache.Levels = make([]cache.LevelCounters, len(r.cfg.Cache.Levels))
	for _, c := range r.cores {
		res.Instructions += c.Counters().Instructions
		cc := c.Caches().Counters()
		for i := range res.Cache.Levels {
			res.Cache.Levels[i].Accesses += cc.Levels[i].Accesses
			res.Cache.Levels[i].Hits += cc.Levels[i].Hits
			res.Cache.Levels[i].DemandMisses += cc.Levels[i].DemandMisses
			res.Cache.Levels[i].Writebacks += cc.Levels[i].Writebacks
		}
		res.Cache.MemDemandReads += cc.MemDemandReads
		res.Cache.MemPrefReads += cc.MemPrefReads
		res.Cache.MemWritebacks += cc.MemWritebacks
		res.Cache.MemNTWrites += cc.MemNTWrites
		res.Cache.PrefIssued += cc.PrefIssued
		res.Cache.PrefHits += cc.PrefHits
		res.Cache.PrefLate += cc.PrefLate
		res.Cache.DemandLoadMisses += cc.DemandLoadMisses
		res.Cache.DemandMissLatency += cc.DemandMissLatency
	}
	return res, nil
}

// replayChunk is how many steps or memsys calls one replay span covers.
const replayChunk = 4096

// replayWorkloads regenerates the recorded run's blocks in its schedule
// order with fresh generators and nothing else, one span per chunk of
// steps under a root span.
func replayWorkloads(cfg sim.Config, factory sim.GeneratorFactory, schedule []uint8, tr *Tracer, id uint64) (instr uint64) {
	gens := newGenerators(cfg, factory)
	blocks := make([]trace.Block, cfg.Threads)
	root := tr.begin("workloads.replay", -1, id)
	for lo := 0; lo < len(schedule); lo += replayChunk {
		hi := min(lo+replayChunk, len(schedule))
		i := tr.begin("workloads.next_block", root, id)
		for _, t := range schedule[lo:hi] {
			b := &blocks[t]
			b.Reset()
			gens[t].NextBlock(b)
			instr += b.Instructions
		}
		tr.finish(i)
	}
	tr.finish(root)
	return instr
}

// replayMemsys plays the recorded calls into a fresh simulator alone,
// resetting its counters where the run did, one span per chunk of
// calls. It reports the measured-phase counters and whether every result
// matched the recording.
func replayMemsys(cfg memsys.Config, rec *recordingMemory, warmCalls int, tr *Tracer, id uint64) (memsys.Counters, bool, error) {
	ms, err := memsys.NewSimulator(cfg)
	if err != nil {
		return memsys.Counters{}, false, err
	}
	same := true
	root := tr.begin("memsys.replay", -1, id)
	for lo := 0; lo < len(rec.calls); lo += replayChunk {
		hi := min(lo+replayChunk, len(rec.calls))
		span := tr.begin("memsys.access", root, id)
		for i := lo; i < hi; i++ {
			if i == warmCalls {
				ms.ResetCounters()
			}
			c := rec.calls[i]
			if ms.Access(c.now, c.addr, c.op) != rec.results[i] {
				same = false
			}
		}
		tr.finish(span)
	}
	if warmCalls == len(rec.calls) {
		ms.ResetCounters()
	}
	tr.finish(root)
	return ms.Counters(), same, nil
}

// rebuildMismatch compares a rebuilt run with the real run's
// measurement and names the first counter that differs ("" when all
// agree).
func rebuildMismatch(m sim.Measurement, r rebuiltResult) string {
	switch {
	case m.Instructions != r.Instructions:
		return fmt.Sprintf("instructions %d != %d", r.Instructions, m.Instructions)
	case m.WallTime != r.WallTime:
		return fmt.Sprintf("simulated wall %v != %v", r.WallTime, m.WallTime)
	case m.Mem != r.Mem:
		return fmt.Sprintf("memsys counters %+v != %+v", r.Mem, m.Mem)
	case len(m.Series.Samples) != len(r.Series.Samples):
		return fmt.Sprintf("pmu samples %d != %d", len(r.Series.Samples), len(m.Series.Samples))
	}
	for i := range m.Series.Samples {
		if m.Series.Samples[i] != r.Series.Samples[i] {
			return fmt.Sprintf("pmu sample %d differs", i)
		}
	}
	a, b := m.Cache, r.Cache
	if len(a.Levels) != len(b.Levels) {
		return "cache level count differs"
	}
	for i := range a.Levels {
		if a.Levels[i] != b.Levels[i] {
			return fmt.Sprintf("cache level %d counters %+v != %+v", i, b.Levels[i], a.Levels[i])
		}
	}
	a.Levels, b.Levels = nil, nil
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		return fmt.Sprintf("cache counters %+v != %+v", b, a)
	}
	return ""
}
