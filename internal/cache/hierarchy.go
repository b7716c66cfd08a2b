package cache

import (
	"repro/internal/memsys"
	"repro/internal/trace"
	"repro/internal/units"
)

// Hierarchy is one hardware thread's cache stack. It is not safe for
// concurrent use; the machine simulator gives each thread its own
// hierarchy over a shared memory backend (see DESIGN.md: LLC capacity is
// modelled as a per-thread slice, and threads do not share data —
// matching SPEC-rate-style and partitioned server workloads).
type Hierarchy struct {
	cfg    Config
	levels []*level
	mem    Memory
	pf     *prefetcher
	ctr    Counters
}

// Outcome reports how one reference resolved.
type Outcome struct {
	// HitLevel is the index of the level that supplied the data, or
	// len(levels) for memory.
	HitLevel int
	// Latency is the exposed load-to-use latency beyond an L1 hit, for
	// demand loads. Stores report 0 (store-buffer semantics).
	Latency units.Duration
	// DemandMiss reports whether the reference missed every level and
	// required a memory fill.
	DemandMiss bool
	// PrefetchHit reports whether the reference was satisfied by a line
	// the prefetcher brought (or is bringing) in.
	PrefetchHit bool
}

// New builds a hierarchy over mem.
func New(cfg Config, mem Memory) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg, mem: mem}
	for _, lc := range cfg.Levels {
		h.levels = append(h.levels, newLevel(lc, cfg.LineSize))
	}
	h.ctr.Levels = make([]LevelCounters, len(cfg.Levels))
	if cfg.Prefetch.Enabled {
		h.pf = newPrefetcher(cfg.Prefetch)
	}
	return h, nil
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Counters returns a snapshot of the accumulated statistics.
func (h *Hierarchy) Counters() Counters {
	var c Counters
	h.CountersInto(&c)
	return c
}

// CountersInto copies the accumulated statistics into dst, reusing
// dst.Levels when it has capacity — zero allocations in steady state
// (the machine simulator snapshots every core every measurement).
func (h *Hierarchy) CountersInto(dst *Counters) {
	levels := dst.Levels
	*dst = h.ctr
	if cap(levels) < len(h.ctr.Levels) {
		levels = make([]LevelCounters, len(h.ctr.Levels))
	}
	levels = levels[:len(h.ctr.Levels)]
	copy(levels, h.ctr.Levels)
	dst.Levels = levels
}

// ResetCounters clears statistics, keeping cache contents (for measuring
// after warm-up). The Levels slice is reused, not reallocated.
func (h *Hierarchy) ResetCounters() {
	levels := h.ctr.Levels
	clear(levels)
	h.ctr = Counters{Levels: levels}
}

// Reset restores the hierarchy to its just-built state for cfg — empty
// levels, zero counters, untrained prefetcher — reusing every allocation
// whose geometry still fits. A machine pool Resets hierarchies thousands
// of times per experiment suite; behaviour after Reset is bit-identical
// to a fresh New (asserted in reset_test.go).
func (h *Hierarchy) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	sameGeom := cfg.LineSize == h.cfg.LineSize && len(cfg.Levels) == len(h.cfg.Levels)
	if sameGeom {
		for i := range cfg.Levels {
			if cfg.Levels[i].Size != h.cfg.Levels[i].Size || cfg.Levels[i].Assoc != h.cfg.Levels[i].Assoc {
				sameGeom = false
				break
			}
		}
	}
	if sameGeom {
		for i, l := range h.levels {
			l.cfg = cfg.Levels[i]
			l.reset()
		}
	} else {
		h.levels = h.levels[:0]
		for _, lc := range cfg.Levels {
			h.levels = append(h.levels, newLevel(lc, cfg.LineSize))
		}
	}
	levels := h.ctr.Levels
	if cap(levels) < len(cfg.Levels) {
		levels = make([]LevelCounters, len(cfg.Levels))
	}
	levels = levels[:len(cfg.Levels)]
	clear(levels)
	h.ctr = Counters{Levels: levels}
	switch {
	case !cfg.Prefetch.Enabled:
		h.pf = nil
	case h.pf != nil && len(h.pf.streams) == cfg.Prefetch.Streams:
		h.pf.reset(cfg.Prefetch)
	default:
		h.pf = newPrefetcher(cfg.Prefetch)
	}
	h.cfg = cfg
	return nil
}

func (h *Hierarchy) line(addr uint64) uint64 { return addr / uint64(h.cfg.LineSize) }

// Access performs one reference at simulated time now on a core running at
// freq (freq converts cycle-denominated hit latencies to time).
func (h *Hierarchy) Access(now units.Duration, ref trace.Ref, freq units.Hertz) Outcome {
	line := h.line(ref.Addr)

	if ref.NonTemporal {
		// Streaming store: write combining straight to memory; invalidate
		// any cached copy (no writeback — the store overwrites the line).
		for _, l := range h.levels {
			if i := l.find(line); i >= 0 {
				l.invalidate(i)
			}
		}
		if h.pf != nil {
			h.pf.forget(line)
		}
		h.mem.Access(now, ref.Addr, memsys.Write)
		h.ctr.MemNTWrites++
		return Outcome{HitLevel: len(h.levels)}
	}

	llc := len(h.levels) - 1
	victim := -1 // LLC way a demand miss fills, from the LLC probe
	for li, l := range h.levels {
		h.ctr.Levels[li].Accesses++
		var ei int
		if li == llc {
			ei, victim = l.probe(line)
		} else {
			ei = l.find(line)
		}
		if ei < 0 {
			continue
		}
		// Hit at level li.
		h.ctr.Levels[li].Hits++
		l.touch(ei)
		out := Outcome{HitLevel: li}
		if l.flags[ei]&flagPref != 0 {
			// First demand touch of a prefetched line: count it once and
			// clear the flag on every level holding the fill (prefetch
			// promotes to the L2 as well).
			for lj := li; lj < len(h.levels); lj++ {
				lv := h.levels[lj]
				ej := ei
				if lj != li {
					ej = lv.find(line)
				}
				if ej >= 0 {
					lv.flags[ej] &^= flagPref
				}
			}
			h.ctr.PrefHits++
			out.PrefetchHit = true
			if ready := l.readyAt[ei]; ready > now {
				// In-flight prefetch: expose the remaining latency.
				h.ctr.PrefLate++
				out.Latency = ready - now
			}
		}
		if !ref.Write {
			out.Latency += l.cfg.HitLatency.Duration(freq)
			if li == 0 {
				out.Latency = 0 // L1 hit latency lives in BaseCPI
			}
		}
		if ref.Write {
			// The line becomes Modified globally: mark every cached copy
			// dirty so the LLC copy always carries the dirty state and an
			// LLC eviction's recall (see evict) can drop the inner copies
			// without a separate writeback.
			for lj := li; lj < len(h.levels); lj++ {
				lv := h.levels[lj]
				ej := ei
				if lj != li {
					ej = lv.find(line)
				}
				if ej >= 0 {
					lv.flags[ej] |= flagDirty
				}
			}
			out.Latency = 0
		}
		// Fill upward so inner levels hit next time (inclusive fill).
		h.fillUpward(now, line, li, ref.Write)
		// The prefetcher trains on traffic that leaves the L1, the way a
		// hardware mid-level prefetcher sees L1-miss streams.
		if h.pf != nil && li >= 1 && !ref.NoPrefetch {
			h.pf.observe(h, now, line)
		}
		return out
	}

	// Missed everywhere: demand fill from memory.
	h.ctr.Levels[llc].DemandMisses++
	res := h.mem.Access(now, ref.Addr, memsys.Read)
	h.ctr.MemDemandReads++
	out := Outcome{HitLevel: len(h.levels), DemandMiss: true}
	if !ref.Write {
		out.Latency = res.Latency
		h.ctr.DemandLoadMisses++
		h.ctr.DemandMissLatency += res.Latency
	}
	h.insertAt(now, line, llc, victim, ref.Write, false, 0)
	h.fillUpward(now, line, llc, ref.Write)
	if h.pf != nil && !ref.NoPrefetch {
		h.pf.observe(h, now, line)
	}
	return out
}

// fillUpward installs line into every level above upTo (exclusive), so the
// next access hits the L1. Misses at inner levels are counted against
// those levels (their DemandMisses), which keeps per-level hit-rate
// statistics meaningful. Both callers have just seen every level above
// upTo miss in Access's scan, and no eviction cascade inserts line, so
// each level is a plain insert.
func (h *Hierarchy) fillUpward(now units.Duration, line uint64, upTo int, write bool) {
	for li := upTo - 1; li >= 0; li-- {
		h.ctr.Levels[li].DemandMisses++
		h.insert(now, line, li, write, false, 0)
	}
}

// insert places line into level li, evicting as needed. Dirty victims are
// written to the next level; dirty LLC victims go to memory.
func (h *Hierarchy) insert(now units.Duration, line uint64, li int, dirty, pref bool, readyAt units.Duration) {
	h.insertAt(now, line, li, h.levels[li].victim(line), dirty, pref, readyAt)
}

// insertAt is insert into way v, which must be the way victim picks for
// line (a probe that missed supplies it without a second scan).
func (h *Hierarchy) insertAt(now units.Duration, line uint64, li, v int, dirty, pref bool, readyAt units.Duration) {
	l := h.levels[li]
	if l.flags[v]&flagValid != 0 {
		h.evict(now, li, v)
	}
	f := flagValid
	if dirty {
		f |= flagDirty
	}
	if pref {
		f |= flagPref
	}
	l.tags[v] = line
	l.flags[v] = f
	l.readyAt[v] = readyAt
	l.touch(v)
}

func (h *Hierarchy) evict(now units.Duration, li, v int) {
	l := h.levels[li]
	tag := l.tags[v]
	if li == len(h.levels)-1 {
		// Inclusive LLC: evicting a line recalls it from the inner levels.
		// Write hits mark every cached copy dirty, so the LLC copy already
		// carries the freshest dirty state and the inner copies can drop
		// without their own writeback — otherwise a dirty inner copy
		// outliving the LLC eviction gets pushed back down later and the
		// same fill is written back twice (MemWritebacks would exceed
		// memory fills, breaking writeback conservation).
		for lj := 0; lj < li; lj++ {
			inner := h.levels[lj]
			if ej := inner.find(tag); ej >= 0 {
				inner.invalidate(ej)
			}
		}
		if h.pf != nil {
			h.pf.forget(tag)
		}
	}
	if l.flags[v]&flagDirty == 0 {
		l.invalidate(v)
		return
	}
	h.ctr.Levels[li].Writebacks++
	if li == len(h.levels)-1 {
		// LLC: write back to memory.
		h.mem.Access(now, tag*uint64(h.cfg.LineSize), memsys.Write)
		h.ctr.MemWritebacks++
	} else {
		// Push dirty data down one level.
		if ej, vj := h.levels[li+1].probe(tag); ej >= 0 {
			h.levels[li+1].flags[ej] |= flagDirty
		} else {
			h.insertAt(now, tag, li+1, vj, true, false, 0)
		}
	}
	l.invalidate(v)
}

// prefetchFill is called by the prefetcher to bring line into the LLC
// (and promote it to the L2, as hardware mid-level prefetchers do) with
// an in-flight arrival time.
func (h *Hierarchy) prefetchFill(now units.Duration, line uint64) {
	llc := len(h.levels) - 1
	ei, v := h.levels[llc].probe(line)
	if ei >= 0 {
		return // already present or in flight
	}
	res := h.mem.Access(now, line*uint64(h.cfg.LineSize), memsys.Read)
	h.ctr.MemPrefReads++
	h.ctr.PrefIssued++
	h.insertAt(now, line, llc, v, false, true, now+res.Latency)
	if llc >= 1 {
		h.insert(now, line, llc-1, false, true, now+res.Latency)
	}
}
