package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/trace"
	"repro/internal/units"
)

// TestRandomOpsInvariants hammers the hierarchy with random mixed
// operations and checks the structural invariants the counters must
// satisfy regardless of the access pattern.
func TestRandomOpsInvariants(t *testing.T) {
	f := func(seed uint64, ntPct, writePct uint8, spanPow uint8) bool {
		mem := &fakeMem{latency: 80}
		h, err := New(smallConfig(true), mem)
		if err != nil {
			return false
		}
		rng := trace.NewRNG(seed)
		span := uint64(1) << (8 + spanPow%12) // 256 lines .. 1M lines
		const n = 3000
		var loads, ntStores uint64
		for i := 0; i < n; i++ {
			ref := trace.Ref{Addr: rng.Uint64n(span) * 64}
			if rng.Bernoulli(float64(writePct%100) / 100) {
				ref.Write = true
				if rng.Bernoulli(float64(ntPct%100) / 100) {
					ref.NonTemporal = true
					ntStores++
				}
			}
			if !ref.Write {
				loads++
			}
			out := h.Access(units.Duration(i)*5, ref, units.GHzOf(2.5))
			if out.Latency < 0 {
				return false
			}
			if ref.Write && out.Latency != 0 {
				return false // stores never stall
			}
		}
		ctr := h.Counters()

		// Per-level: hits never exceed accesses; each level's accesses
		// equal the previous level's non-hits (plus nothing else).
		for li, lvl := range ctr.Levels {
			if lvl.Hits > lvl.Accesses {
				return false
			}
			if li > 0 {
				prev := ctr.Levels[li-1]
				if lvl.Accesses != prev.Accesses-prev.Hits {
					return false
				}
			}
		}
		// NT stores are all accounted; memory reads cover every demand
		// miss; demand-load misses never exceed loads.
		if ctr.MemNTWrites != ntStores {
			return false
		}
		llc := ctr.Levels[len(ctr.Levels)-1]
		if ctr.MemDemandReads != llc.DemandMisses {
			return false
		}
		if ctr.DemandLoadMisses > loads {
			return false
		}
		// Fill conservation: everything memory supplied is either still
		// cached or was evicted; writebacks can't exceed total fills.
		if ctr.MemWritebacks > ctr.MemDemandReads+ctr.MemPrefReads {
			return false
		}
		// Prefetch hits can't exceed prefetch issues.
		return ctr.PrefHits <= ctr.PrefIssued
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestInclusionInvariant verifies the inclusive-hierarchy property after
// random traffic: any line present in an inner level is present in every
// level below it.
func TestInclusionInvariant(t *testing.T) {
	mem := &fakeMem{latency: 80}
	h, err := New(smallConfig(false), mem)
	if err != nil {
		t.Fatal(err)
	}
	rng := trace.NewRNG(99)
	for i := 0; i < 5000; i++ {
		ref := trace.Ref{Addr: rng.Uint64n(64) * 64, Write: rng.Bernoulli(0.3)}
		h.Access(units.Duration(i)*3, ref, units.GHzOf(2.5))
	}
	// Walk L1 and L2 contents; every valid line must be found downward.
	for li := 0; li < len(h.levels)-1; li++ {
		lv := h.levels[li]
		for wi := range lv.tags {
			if lv.flags[wi]&flagValid == 0 {
				continue
			}
			tag, dirty := lv.tags[wi], lv.flags[wi]&flagDirty != 0
			found := false
			for lj := li + 1; lj < len(h.levels); lj++ {
				if h.levels[lj].find(tag) >= 0 {
					found = true
					break
				}
			}
			if !found {
				// Inclusion here is maintained by fill, not enforced by
				// back-invalidation; an LLC eviction may orphan an inner
				// copy. What must NOT happen is an orphaned *clean* line
				// being unreachable while dirty data is lost — dirty
				// orphans still write back through the dirty-all-levels
				// marking. Verify the orphan is at least tracked dirty
				// if it was written.
				if dirty {
					t.Fatalf("level %d holds dirty orphan line %d with no downstream copy", li, tag)
				}
			}
		}
	}
}

// TestPrefetchWindowsPresent checks the invariant the prefetcher's skip
// rests on: after every Access, every line inside every valid stream's
// known-present window (last+dir … last+ahead·dir) is in the LLC. It
// runs the differential test's geometries and traffic, including the
// direct-mapped and few-set LLCs where fills evict their own stream's
// lines and NT stores land inside trained windows.
func TestPrefetchWindowsPresent(t *testing.T) {
	for name, cfg := range witnessConfigs() {
		if !cfg.Prefetch.Enabled {
			continue
		}
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				for traffic, next := range map[string]func() trace.Ref{
					"mixed":   mixedTraffic(seed),
					"streams": streamTraffic(seed, cfg.Prefetch),
				} {
					h, err := New(cfg, &fakeMem{latency: 80})
					if err != nil {
						t.Fatal(err)
					}
					llc := h.levels[len(h.levels)-1]
					windowed := 0
					for i := 0; i < 10_000; i++ {
						h.Access(units.Duration(i)*7, next(), units.GHzOf(2.5))
						for si, s := range h.pf.streams {
							if !s.valid {
								continue
							}
							windowed += s.ahead
							for k := 1; k <= s.ahead; k++ {
								line := uint64(int64(s.last) + int64(k)*s.dir)
								if llc.find(line) < 0 {
									t.Fatalf("%s seed %d op %d: stream %d (last %d dir %d ahead %d) window line %d missing from the LLC",
										traffic, seed, i, si, s.last, s.dir, s.ahead, line)
								}
							}
						}
					}
					if windowed == 0 {
						t.Fatalf("%s seed %d: no stream ever held a window; the check is vacuous", traffic, seed)
					}
				}
			}
		})
	}
}
