//! Property-based equivalence of the struct-of-arrays cache against the
//! array-of-structs cache it replaced.
//!
//! `SetAssocCache` stores its lines as tag, flag and LRU columns and derives
//! set indices from a precomputed shift and mask; `CpuHierarchy` probes each
//! level once per stream fill and per invalidation.  None of that may change
//! a result: the reference below is the previous implementation kept
//! verbatim (one `Line` struct per way, `CacheConfig::set_index` per probe,
//! a `contains` check before every prefetch fill and invalidation).  Both
//! are driven with the same random operation sequences on tiny geometries,
//! so sets overflow constantly and every replacement decision is exercised,
//! and must agree on every outcome, every statistic and the state
//! fingerprint after every step.

use memsim::{
    AccessOutcome, CacheConfig, CacheLineState, CacheStats, CpuHierarchy, EvictedLine,
    FingerprintBuilder, HierarchyConfig, HierarchyOutcome, SetAssocCache, StateFingerprint,
};
use proptest::prelude::*;
use trace::{AccessKind, MemAccess};

// ---------------------------------------------------------------------------
// Reference cache: the array-of-structs implementation, verbatim semantics.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    prefetched_unused: bool,
    lru: u64,
}

impl Line {
    const INVALID: Line = Line {
        tag: 0,
        valid: false,
        dirty: false,
        prefetched_unused: false,
        lru: 0,
    };
}

struct RefCache {
    config: CacheConfig,
    lines: Vec<Line>,
    tick: u64,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        let lines = vec![Line::INVALID; config.num_lines() as usize];
        Self {
            config,
            lines,
            tick: 0,
        }
    }

    fn set_range(&self, addr: u64) -> std::ops::Range<usize> {
        let set = ((addr / self.config.block_bytes) & (self.config.num_sets() - 1)) as usize;
        let assoc = self.config.associativity as usize;
        set * assoc..(set + 1) * assoc
    }

    fn tag(&self, addr: u64) -> u64 {
        self.config.block_addr(addr)
    }

    fn touch(&mut self, index: usize) {
        self.tick += 1;
        self.lines[index].lru = self.tick;
    }

    fn find(&self, addr: u64) -> Option<usize> {
        let tag = self.tag(addr);
        self.set_range(addr)
            .find(|&i| self.lines[i].valid && self.lines[i].tag == tag)
    }

    fn contains(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    fn line_state(&self, addr: u64) -> Option<CacheLineState> {
        self.find(addr).map(|i| {
            if self.lines[i].prefetched_unused {
                CacheLineState::PrefetchedUnused
            } else {
                CacheLineState::Demand
            }
        })
    }

    fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
        if let Some(i) = self.find(addr) {
            let was_prefetched = self.lines[i].prefetched_unused;
            if kind.is_write() && was_prefetched {
                self.lines[i].prefetched_unused = false;
                self.lines[i].dirty = true;
                self.touch(i);
                return AccessOutcome {
                    hit: false,
                    hit_on_prefetched: false,
                    evicted: None,
                };
            }
            self.lines[i].prefetched_unused = false;
            if kind.is_write() {
                self.lines[i].dirty = true;
            }
            self.touch(i);
            return AccessOutcome {
                hit: true,
                hit_on_prefetched: was_prefetched,
                evicted: None,
            };
        }
        let evicted = self.fill_internal(addr, kind.is_write(), false);
        AccessOutcome {
            hit: false,
            hit_on_prefetched: false,
            evicted,
        }
    }

    fn prefetch_fill(&mut self, addr: u64) -> Option<EvictedLine> {
        if self.contains(addr) {
            return None;
        }
        self.fill_internal(addr, false, true)
    }

    fn fill(&mut self, addr: u64, dirty: bool) -> Option<EvictedLine> {
        if let Some(i) = self.find(addr) {
            if dirty {
                self.lines[i].dirty = true;
            }
            self.touch(i);
            return None;
        }
        self.fill_internal(addr, dirty, false)
    }

    fn fill_internal(&mut self, addr: u64, dirty: bool, prefetched: bool) -> Option<EvictedLine> {
        let tag = self.tag(addr);
        let range = self.set_range(addr);
        // Prefer an invalid way; otherwise evict the LRU way.
        let mut victim = range.start;
        let mut best_lru = u64::MAX;
        let mut found_invalid = false;
        for i in range {
            if !self.lines[i].valid {
                victim = i;
                found_invalid = true;
                break;
            }
            if self.lines[i].lru < best_lru {
                best_lru = self.lines[i].lru;
                victim = i;
            }
        }
        let evicted = if found_invalid {
            None
        } else {
            let old = self.lines[victim];
            Some(EvictedLine {
                block_addr: old.tag,
                dirty: old.dirty,
                state: if old.prefetched_unused {
                    CacheLineState::PrefetchedUnused
                } else {
                    CacheLineState::Demand
                },
            })
        };
        self.lines[victim] = Line {
            tag,
            valid: true,
            dirty,
            prefetched_unused: prefetched,
            lru: 0,
        };
        self.touch(victim);
        evicted
    }

    fn invalidate(&mut self, addr: u64) -> Option<EvictedLine> {
        let i = self.find(addr)?;
        let old = self.lines[i];
        self.lines[i] = Line::INVALID;
        Some(EvictedLine {
            block_addr: old.tag,
            dirty: old.dirty,
            state: if old.prefetched_unused {
                CacheLineState::PrefetchedUnused
            } else {
                CacheLineState::Demand
            },
        })
    }

    fn fingerprint_into(&self, fp: &mut FingerprintBuilder) {
        fp.mix(self.tick);
        fp.mix(self.lines.len() as u64);
        for line in &self.lines {
            fp.mix(line.tag);
            fp.mix_bool(line.valid);
            fp.mix_bool(line.dirty);
            fp.mix_bool(line.prefetched_unused);
            fp.mix(line.lru);
        }
    }

    fn fingerprint(&self) -> StateFingerprint {
        let mut fp = FingerprintBuilder::new();
        self.fingerprint_into(&mut fp);
        fp.finish()
    }

    fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

// ---------------------------------------------------------------------------
// Reference hierarchy: the double-probing stream fill and the system's
// `contains`-then-`invalidate` coherence action, verbatim semantics.
// ---------------------------------------------------------------------------

struct RefHierarchy {
    cpu: u8,
    l1: RefCache,
    l2: RefCache,
    l1_stats: CacheStats,
    l2_stats: CacheStats,
}

fn mix_stats(s: &CacheStats, fp: &mut FingerprintBuilder) {
    for v in [
        s.accesses,
        s.reads,
        s.writes,
        s.misses,
        s.read_misses,
        s.write_misses,
        s.prefetch_hits,
        s.prefetch_unused_evictions,
        s.prefetch_fills,
        s.writebacks,
        s.invalidations,
    ] {
        fp.mix(v);
    }
}

impl RefHierarchy {
    fn new(cpu: u8, config: &HierarchyConfig) -> Self {
        Self {
            cpu,
            l1: RefCache::new(config.l1),
            l2: RefCache::new(config.l2),
            l1_stats: CacheStats::new(),
            l2_stats: CacheStats::new(),
        }
    }

    fn fingerprint(&self) -> StateFingerprint {
        let mut fp = FingerprintBuilder::new();
        fp.mix(self.cpu as u64);
        self.l1.fingerprint_into(&mut fp);
        self.l2.fingerprint_into(&mut fp);
        mix_stats(&self.l1_stats, &mut fp);
        mix_stats(&self.l2_stats, &mut fp);
        fp.finish()
    }

    fn access(&mut self, access: &MemAccess) -> HierarchyOutcome {
        self.l1_stats.accesses += 1;
        if access.kind.is_read() {
            self.l1_stats.reads += 1;
        } else {
            self.l1_stats.writes += 1;
        }

        let l1_out = self.l1.access(access.addr, access.kind);
        if l1_out.hit {
            if l1_out.hit_on_prefetched {
                self.l1_stats.prefetch_hits += 1;
            }
            return HierarchyOutcome {
                l1_hit: true,
                l1_hit_on_prefetched: l1_out.hit_on_prefetched,
                l2_hit: false,
                l2_hit_on_prefetched: false,
                offchip: false,
                l1_evicted: None,
                l2_evicted: None,
            };
        }

        self.l1_stats.misses += 1;
        if access.kind.is_read() {
            self.l1_stats.read_misses += 1;
        } else {
            self.l1_stats.write_misses += 1;
        }
        let l1_evicted = l1_out.evicted;
        if let Some(e) = &l1_evicted {
            if e.state == CacheLineState::PrefetchedUnused {
                self.l1_stats.prefetch_unused_evictions += 1;
            }
        }

        self.l2_stats.accesses += 1;
        if access.kind.is_read() {
            self.l2_stats.reads += 1;
        } else {
            self.l2_stats.writes += 1;
        }
        let l2_out = self.l2.access(access.addr, access.kind);
        let mut l2_evicted = None;
        let offchip = if l2_out.hit {
            if l2_out.hit_on_prefetched {
                self.l2_stats.prefetch_hits += 1;
            }
            false
        } else {
            self.l2_stats.misses += 1;
            if access.kind.is_read() {
                self.l2_stats.read_misses += 1;
            } else {
                self.l2_stats.write_misses += 1;
            }
            l2_evicted = l2_out.evicted;
            if let Some(e) = &l2_evicted {
                if e.state == CacheLineState::PrefetchedUnused {
                    self.l2_stats.prefetch_unused_evictions += 1;
                }
            }
            true
        };

        if let Some(e) = &l1_evicted {
            if e.dirty {
                self.l1_stats.writebacks += 1;
                let wb_evicted = self.l2.fill(e.block_addr, true);
                if l2_evicted.is_none() {
                    l2_evicted = wb_evicted;
                }
            }
        }
        if let Some(e) = &l2_evicted {
            if e.dirty {
                self.l2_stats.writebacks += 1;
            }
        }

        HierarchyOutcome {
            l1_hit: false,
            l1_hit_on_prefetched: false,
            l2_hit: l2_out.hit,
            l2_hit_on_prefetched: l2_out.hit_on_prefetched,
            offchip,
            l1_evicted,
            l2_evicted,
        }
    }

    fn stream_fill(&mut self, addr: u64) -> Option<EvictedLine> {
        if self.l1.contains(addr) {
            return None;
        }
        self.l1_stats.prefetch_fills += 1;
        if !self.l2.contains(addr) {
            self.l2_stats.prefetch_fills += 1;
            let l2_victim = self.l2.prefetch_fill(addr);
            if let Some(e) = &l2_victim {
                if e.state == CacheLineState::PrefetchedUnused {
                    self.l2_stats.prefetch_unused_evictions += 1;
                }
                if e.dirty {
                    self.l2_stats.writebacks += 1;
                }
            }
        }
        let victim = self.l1.prefetch_fill(addr);
        if let Some(e) = &victim {
            if e.state == CacheLineState::PrefetchedUnused {
                self.l1_stats.prefetch_unused_evictions += 1;
            }
            if e.dirty {
                self.l1_stats.writebacks += 1;
                self.l2.fill(e.block_addr, true);
            }
        }
        victim
    }

    fn l2_prefetch_fill(&mut self, addr: u64) -> Option<EvictedLine> {
        if self.l2.contains(addr) {
            return None;
        }
        self.l2_stats.prefetch_fills += 1;
        let victim = self.l2.prefetch_fill(addr);
        if let Some(e) = &victim {
            if e.state == CacheLineState::PrefetchedUnused {
                self.l2_stats.prefetch_unused_evictions += 1;
            }
            if e.dirty {
                self.l2_stats.writebacks += 1;
            }
        }
        victim
    }

    fn invalidate(&mut self, addr: u64) -> Option<EvictedLine> {
        let l1_line = self.l1.invalidate(addr);
        if l1_line.is_some() {
            self.l1_stats.invalidations += 1;
            if l1_line.map(|l| l.state) == Some(CacheLineState::PrefetchedUnused) {
                self.l1_stats.prefetch_unused_evictions += 1;
            }
        }
        let l2_line = self.l2.invalidate(addr);
        if l2_line.is_some() {
            self.l2_stats.invalidations += 1;
            if l2_line.map(|l| l.state) == Some(CacheLineState::PrefetchedUnused) {
                self.l2_stats.prefetch_unused_evictions += 1;
            }
        }
        l1_line
    }

    /// The remote side of the old write-invalidate coherence action: probe
    /// both levels, and invalidate only when either holds the block.
    /// Returns `(had_l1, had_l2, removed L1 line)`.
    fn coherence_invalidate(&mut self, addr: u64) -> (bool, bool, Option<EvictedLine>) {
        let had_l1 = self.l1.contains(addr);
        let had_l2 = self.l2.contains(addr);
        let removed = if had_l1 || had_l2 {
            self.invalidate(addr)
        } else {
            None
        };
        (had_l1, had_l2, removed)
    }
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// Addresses from a pool of 24 blocks of 64 B (block 0 included, whose tag
/// equals an invalid line's), at a random byte within the block.
fn address(block: u8, byte: u8) -> u64 {
    u64::from(block) * 64 + u64::from(byte % 64)
}

fn check_cache_equivalence(config: CacheConfig, ops: &[(u8, u8, u8)]) {
    let mut new = SetAssocCache::new(config);
    let mut old = RefCache::new(config);
    for (step, &(op, block, byte)) in ops.iter().enumerate() {
        let addr = address(block, byte);
        match op {
            0 => assert_eq!(
                new.access(addr, AccessKind::Read),
                old.access(addr, AccessKind::Read),
                "step {step}: read {addr:#x}"
            ),
            1 => assert_eq!(
                new.access(addr, AccessKind::Write),
                old.access(addr, AccessKind::Write),
                "step {step}: write {addr:#x}"
            ),
            2 => assert_eq!(
                new.prefetch_fill(addr),
                old.prefetch_fill(addr),
                "step {step}: prefetch fill {addr:#x}"
            ),
            3 | 4 => {
                let dirty = op == 4;
                assert_eq!(
                    new.fill(addr, dirty),
                    old.fill(addr, dirty),
                    "step {step}: fill {addr:#x} dirty={dirty}"
                )
            }
            5 => assert_eq!(
                new.invalidate(addr),
                old.invalidate(addr),
                "step {step}: invalidate {addr:#x}"
            ),
            _ => {
                assert_eq!(new.contains(addr), old.contains(addr), "step {step}");
                assert_eq!(new.line_state(addr), old.line_state(addr), "step {step}");
            }
        }
        assert_eq!(new.fingerprint(), old.fingerprint(), "step {step}: state");
        assert_eq!(new.resident_lines(), old.resident_lines(), "step {step}");
    }
}

fn check_hierarchy_equivalence(config: &HierarchyConfig, ops: &[(u8, u8, u8)]) {
    let mut new = CpuHierarchy::new(0, config);
    let mut old = RefHierarchy::new(0, config);
    for (step, &(op, block, byte)) in ops.iter().enumerate() {
        let addr = address(block, byte);
        match op {
            0 => {
                let access = MemAccess::read(0, 0x400, addr);
                assert_eq!(new.access(&access), old.access(&access), "step {step}");
            }
            1 => {
                let access = MemAccess::write(0, 0x400, addr);
                assert_eq!(new.access(&access), old.access(&access), "step {step}");
            }
            2 | 3 => assert_eq!(
                new.stream_fill(addr),
                old.stream_fill(addr),
                "step {step}: stream fill {addr:#x}"
            ),
            4 => assert_eq!(
                new.l2_prefetch_fill(addr),
                old.l2_prefetch_fill(addr),
                "step {step}: L2 prefetch {addr:#x}"
            ),
            _ => {
                let (had_l1, had_l2, removed) = old.coherence_invalidate(addr);
                let lines = new.invalidate(addr);
                assert_eq!(lines.l1.is_some(), had_l1, "step {step}: L1 presence");
                assert_eq!(lines.l2.is_some(), had_l2, "step {step}: L2 presence");
                assert_eq!(lines.any(), had_l1 || had_l2, "step {step}");
                assert_eq!(lines.l1, removed, "step {step}: removed L1 line");
            }
        }
        assert_eq!(new.l1_stats(), &old.l1_stats, "step {step}: L1 stats");
        assert_eq!(new.l2_stats(), &old.l2_stats, "step {step}: L2 stats");
        assert_eq!(new.fingerprint(), old.fingerprint(), "step {step}: state");
    }
}

/// Tiny geometries: direct-mapped, 2-way, 3-way (a non-power-of-two way
/// count over a power-of-two set count) and fully associative.
fn tiny_caches() -> [CacheConfig; 4] {
    [
        CacheConfig::new(256, 1, 64),
        CacheConfig::new(512, 2, 64),
        CacheConfig::new(768, 3, 64),
        CacheConfig::new(256, 4, 64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn soa_cache_matches_reference(
        ops in proptest::collection::vec((0u8..7, 0u8..24, 0u8..255), 0..400),
    ) {
        for config in tiny_caches() {
            check_cache_equivalence(config, &ops);
        }
    }

    #[test]
    fn soa_cache_matches_reference_with_large_blocks(
        ops in proptest::collection::vec((0u8..7, 0u8..24, 0u8..255), 0..300),
    ) {
        // 128 B blocks: two pool blocks share each cache block, so probes
        // must mask the offset bits.
        check_cache_equivalence(CacheConfig::new(1024, 2, 128), &ops);
    }

    #[test]
    fn single_probe_hierarchy_matches_reference(
        ops in proptest::collection::vec((0u8..6, 0u8..24, 0u8..255), 0..400),
    ) {
        for (l1, l2) in [
            (CacheConfig::new(256, 2, 64), CacheConfig::new(512, 2, 64)),
            (CacheConfig::new(256, 1, 64), CacheConfig::new(768, 3, 64)),
        ] {
            check_hierarchy_equivalence(&HierarchyConfig { l1, l2 }, &ops);
        }
    }
}
