// Package cache implements the processor cache hierarchy of the simulated
// machine: set-associative, write-back, write-allocate levels with LRU
// replacement, an LLC stream prefetcher, and non-temporal store handling.
//
// The paper's model components map onto this package's counters directly:
// MPI is LLC demand misses plus prefetch fills per instruction ("either
// demand or prefetch", §IV.B), WBR is memory writes (dirty LLC evictions
// plus non-temporal stores) as a fraction of MPI, and the effectiveness of
// the prefetcher is what drives a workload's emergent blocking factor down
// (§VII: "an improved prefetching technique ... will lower the blocking
// factor").
package cache

import (
	"errors"
	"fmt"

	"repro/internal/memsys"
	"repro/internal/units"
)

// Memory is the backend a Hierarchy fills from and writes back to.
// *memsys.Simulator implements it.
type Memory interface {
	Access(now units.Duration, addr uint64, op memsys.Op) memsys.Result
}

// LevelConfig describes one cache level.
type LevelConfig struct {
	Name string
	Size units.Bytes
	// Assoc is the set associativity (ways).
	Assoc int
	// HitLatency is the *exposed* extra load-to-use latency, in core
	// cycles, of a demand load satisfied at this level rather than the
	// L1: the raw level latency discounted by what the out-of-order core
	// hides. (L1 hit latency is folded into a block's BaseCPI.)
	HitLatency units.Cycles
}

// PrefetchConfig tunes the LLC stream prefetcher.
type PrefetchConfig struct {
	Enabled bool
	// Streams is the number of concurrently tracked 4 KiB-page streams.
	Streams int
	// Depth is how many lines ahead of a trained stream are fetched.
	Depth int
	// TrainHits is the number of consecutive sequential accesses required
	// before a stream starts issuing prefetches.
	TrainHits int
}

// Config describes a full hierarchy.
type Config struct {
	LineSize units.Bytes
	Levels   []LevelConfig // ordered from L1 (index 0) to LLC (last)
	Prefetch PrefetchConfig
}

// DefaultConfig returns the measurement hierarchy: a 1:10 scale model of
// the paper's Xeon E5-2600 per-thread stack (32 KiB L1, 256 KiB L2,
// 2.5 MB LLC slice). Capacities shrink tenfold while workload footprints
// keep the same footprint-to-capacity ratios, so miss rates and steady-
// state writeback behaviour are preserved at a tenth of the warm-up cost
// (DESIGN.md §2, "footprint virtualization").
func DefaultConfig() Config {
	return Config{
		LineSize: 64,
		Levels: []LevelConfig{
			{Name: "L1", Size: 32 * units.KiB, Assoc: 8, HitLatency: 0},
			{Name: "L2", Size: 64 * units.KiB, Assoc: 8, HitLatency: 5},
			{Name: "LLC", Size: 256 * units.KiB, Assoc: 16, HitLatency: 14},
		},
		Prefetch: PrefetchConfig{Enabled: true, Streams: 32, Depth: 8, TrainHits: 2},
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.LineSize <= 0 || (uint64(c.LineSize)&(uint64(c.LineSize)-1)) != 0 {
		return errors.New("cache: LineSize must be a positive power of two")
	}
	if len(c.Levels) == 0 {
		return errors.New("cache: at least one level required")
	}
	for i, l := range c.Levels {
		if l.Size <= 0 || l.Assoc <= 0 {
			return fmt.Errorf("cache: level %d (%s): Size and Assoc must be positive", i, l.Name)
		}
		sets := uint64(l.Size) / (uint64(c.LineSize) * uint64(l.Assoc))
		if sets == 0 {
			return fmt.Errorf("cache: level %d (%s): fewer than one set", i, l.Name)
		}
	}
	if c.Prefetch.Enabled {
		if c.Prefetch.Streams <= 0 || c.Prefetch.Depth <= 0 || c.Prefetch.TrainHits <= 0 {
			return errors.New("cache: prefetch parameters must be positive when enabled")
		}
	}
	return nil
}

// LevelCounters accumulates per-level statistics.
type LevelCounters struct {
	Accesses     uint64
	Hits         uint64
	DemandMisses uint64
	Writebacks   uint64 // dirty evictions pushed to the next level (or memory, for the LLC)
}

// Counters accumulates hierarchy-wide statistics.
type Counters struct {
	Levels []LevelCounters

	// Memory traffic.
	MemDemandReads uint64 // LLC demand miss fills
	MemPrefReads   uint64 // prefetch fills
	MemWritebacks  uint64 // dirty LLC evictions
	MemNTWrites    uint64 // non-temporal stores

	// Prefetcher effectiveness.
	PrefIssued uint64
	PrefHits   uint64 // demand accesses satisfied by a completed prefetch
	PrefLate   uint64 // demand accesses that waited on an in-flight prefetch

	// DemandLoadMisses counts demand *load* misses (stores fill without
	// stalling); DemandMissLatency sums their exposed latency. Their ratio
	// is the measured miss penalty MP.
	DemandLoadMisses  uint64
	DemandMissLatency units.Duration
}

// AvgMissPenalty returns the measured average demand-load miss latency —
// the MP of Eq. 1, in time units (convert to core cycles at the measuring
// frequency).
func (c Counters) AvgMissPenalty() units.Duration {
	if c.DemandLoadMisses == 0 {
		return 0
	}
	return units.Duration(float64(c.DemandMissLatency) / float64(c.DemandLoadMisses))
}

// MPI returns (demand misses + prefetch fills) per instruction — the
// paper's MPI, which feeds both Eq. 1 and the bandwidth demand of Eq. 4.
func (c Counters) MPI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(c.MemDemandReads+c.MemPrefReads) / float64(instructions)
}

// WBR returns memory writes (writebacks + non-temporal stores) as a
// fraction of MPI-counted reads. The paper expresses WBR as a percentage
// of MPKI and notes it exceeds 100% for NITS because of the NT stores.
func (c Counters) WBR() float64 {
	reads := c.MemDemandReads + c.MemPrefReads
	if reads == 0 {
		return 0
	}
	return float64(c.MemWritebacks+c.MemNTWrites) / float64(reads)
}

// Per-way metadata bits, packed into one byte per way so the find and
// victim scans touch dense arrays.
const (
	flagValid uint8 = 1 << iota
	flagDirty
	flagPref // line was brought in by the prefetcher and not yet demanded
)

// invalidTag marks an invalid way in the tags array, so the find scan is
// a pure tag compare with no second flags load. It can never collide
// with a live tag: tags are addr/LineSize, and with LineSize ≥ 2 (every
// real geometry; DefaultConfig uses 64) no uint64 address divides to
// ^uint64(0). The flags valid bit is kept in lockstep (invalidate is the
// only clear path) for the dirty/prefetch state machine and invariants.
const invalidTag = ^uint64(0)

// level stores its ways struct-of-arrays: the find/victim scans that
// dominate simulation time walk a dense tags slice (a whole 8-way set of
// tags is a single cache line) with the cold per-way state (readyAt)
// split off, instead of striding over 48-byte per-way structs.
type level struct {
	cfg   LevelConfig
	sets  uint64
	mask  uint64 // sets-1 when sets is a power of two
	pow2  bool
	assoc int
	// Parallel arrays of sets × assoc ways, indexed set*assoc+way.
	tags     []uint64
	flags    []uint8 // flagValid | flagDirty | flagPref
	lru      []uint64
	readyAt  []units.Duration // in-flight prefetch arrival time
	lruClock uint64
}

func newLevel(cfg LevelConfig, lineSize units.Bytes) *level {
	sets := uint64(cfg.Size) / (uint64(lineSize) * uint64(cfg.Assoc))
	n := sets * uint64(cfg.Assoc)
	l := &level{
		cfg:     cfg,
		sets:    sets,
		assoc:   cfg.Assoc,
		tags:    make([]uint64, n),
		flags:   make([]uint8, n),
		lru:     make([]uint64, n),
		readyAt: make([]units.Duration, n),
	}
	for i := range l.tags {
		l.tags[i] = invalidTag
	}
	if sets&(sets-1) == 0 {
		l.pow2 = true
		l.mask = sets - 1
	}
	return l
}

// reset restores the level to its just-built state, reusing its arrays.
func (l *level) reset() {
	for i := range l.tags {
		l.tags[i] = invalidTag
	}
	clear(l.flags)
	clear(l.lru)
	clear(l.readyAt)
	l.lruClock = 0
}

// invalidate clears way i: valid bit off, tag swapped for the sentinel
// so the find scan skips it without consulting flags.
func (l *level) invalidate(i int) {
	l.flags[i] &^= flagValid
	l.tags[i] = invalidTag
}

// setBase returns the index of line's set's first way. Every default
// geometry has a power-of-two set count, masking away the division.
func (l *level) setBase(line uint64) uint64 {
	if l.pow2 {
		return (line & l.mask) * uint64(l.assoc)
	}
	return (line % l.sets) * uint64(l.assoc)
}

// find returns the way index holding line, or -1. Way order and the
// first-match rule are what the pre-SoA []entry scan used, so replacement
// behaviour is bit-identical (cache/refhier_test.go witnesses this).
// Invalid ways hold invalidTag, so the scan needs no validity load.
func (l *level) find(line uint64) int {
	base := l.setBase(line)
	tags := l.tags[base : base+uint64(l.assoc)]
	for i := range tags {
		if tags[i] == line {
			return int(base) + i
		}
	}
	return -1
}

// victim returns the way index to fill for line: the first invalid way if
// any, otherwise the first way with the strictly smallest LRU stamp. The
// way still holds the victim's state; the caller handles its writeback
// before overwriting. Invalidity is read off the tag sentinel, keeping
// the scan on the same two arrays the hit path already pulled in.
func (l *level) victim(line uint64) int {
	base := l.setBase(line)
	tags := l.tags[base : base+uint64(l.assoc)]
	lru := l.lru[base : base+uint64(l.assoc)]
	vi := 0
	for i := range tags {
		if tags[i] == invalidTag {
			return int(base) + i
		}
		if lru[i] < lru[vi] {
			vi = i
		}
	}
	return int(base) + vi
}

// probe is find and victim in one scan, for a miss that is followed
// immediately by an insert into the same set: it returns the hit way and
// -1, or -1 and the way victim would pick (the first invalid way,
// otherwise the first way with the strictly smallest LRU stamp).
func (l *level) probe(line uint64) (hit, victim int) {
	base := l.setBase(line)
	tags := l.tags[base : base+uint64(l.assoc)]
	lru := l.lru[base : base+uint64(l.assoc)]
	vi, inv := 0, -1
	for i := range tags {
		switch {
		case tags[i] == line:
			return int(base) + i, -1
		case tags[i] == invalidTag:
			if inv < 0 {
				inv = i
			}
		case inv < 0 && lru[i] < lru[vi]:
			vi = i
		}
	}
	if inv >= 0 {
		vi = inv
	}
	return -1, int(base) + vi
}

func (l *level) touch(i int) {
	l.lruClock++
	l.lru[i] = l.lruClock
}
