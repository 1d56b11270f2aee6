//! A set-associative, write-allocate cache with LRU replacement.
//!
//! The cache tracks, per line, whether it is dirty and whether it was filled
//! by a prefetch/stream request and has not yet been used by a demand access.
//! The latter is what the SMS coverage accounting needs: a demand access to a
//! `prefetched` line is a miss that the prefetcher eliminated, while the
//! eviction or invalidation of a still-unused `prefetched` line is an
//! overprediction.
//!
//! # Layout
//!
//! Every demand access and every stream request probes at least one cache, so
//! the probe is the simulator's innermost loop.  The lines are stored as
//! three columns indexed by `set * associativity + way`: block tags (`u64`),
//! state flags (`u8`: valid, dirty, prefetched-unused) and LRU stamps
//! (`u64`), 17 bytes per line.  A probe compares a set's tags in one
//! contiguous run (an 8-way set is one 64-byte host line) and reads the flags
//! only on a tag match.  The set index is a shift and a mask precomputed at
//! construction, which is why [`CacheConfig::validate`] insists on
//! power-of-two block sizes and set counts.
//!
//! # Invariants
//!
//! * An invalid line holds tag 0, no flags and LRU stamp 0, so the state
//!   fingerprint reads it exactly as a freshly built line.
//! * A valid line's LRU stamp is the (strictly increasing, never zero) clock
//!   value of its last touch.  The replacement victim — the first invalid way,
//!   else the least recently used way — is therefore simply the first way
//!   with the smallest stamp.

use crate::config::CacheConfig;
use crate::fingerprint::{FingerprintBuilder, StateFingerprint};
use trace::AccessKind;

/// Per-line usage state relevant to prefetch accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLineState {
    /// Filled by a demand miss (or already used by a demand access).
    Demand,
    /// Filled by a prefetch/stream and not yet referenced by a demand access.
    PrefetchedUnused,
}

/// A line evicted or invalidated from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Block-aligned address of the departed line.
    pub block_addr: u64,
    /// Whether the line was dirty (needs write-back).
    pub dirty: bool,
    /// Usage state at departure; `PrefetchedUnused` means an overprediction.
    pub state: CacheLineState,
}

/// Result of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit in the cache.
    pub hit: bool,
    /// Whether the hit line had been filled by a prefetch and was unused
    /// until now (i.e. the prefetch "covered" this would-be miss).
    pub hit_on_prefetched: bool,
    /// Line evicted to make room for the fill, if the access missed and the
    /// set was full.
    pub evicted: Option<EvictedLine>,
}

/// Line state flag: the line holds a block.
const VALID: u8 = 1;
/// Line state flag: the line was written since it was filled.
const DIRTY: u8 = 1 << 1;
/// Line state flag: filled by a prefetch and not yet used by a demand access.
const PREFETCHED_UNUSED: u8 = 1 << 2;

/// A set-associative cache model.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// `log2(block_bytes)`: an address's block number is `addr >> block_shift`.
    block_shift: u32,
    /// `num_sets - 1`: a block number's set is `block & set_mask`.
    set_mask: u64,
    /// Ways per set, the stride between sets in the line columns.
    assoc: usize,
    /// Block-aligned address of each line (0 when invalid).
    tags: Vec<u64>,
    /// `VALID | DIRTY | PREFETCHED_UNUSED` bits of each line (0 when invalid).
    flags: Vec<u8>,
    /// LRU stamp of each line (0 when invalid).
    lru: Vec<u64>,
    tick: u64,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`CacheConfig::validate`].
    pub fn new(config: CacheConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let lines = config.num_lines() as usize;
        Self {
            config,
            block_shift: config.block_bytes.trailing_zeros(),
            set_mask: config.num_sets() - 1,
            assoc: config.associativity as usize,
            tags: vec![0; lines],
            flags: vec![0; lines],
            lru: vec![0; lines],
            tick: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Index of the first way of `addr`'s set in the line columns.
    #[inline]
    fn set_start(&self, addr: u64) -> usize {
        ((addr >> self.block_shift) & self.set_mask) as usize * self.assoc
    }

    /// The block-aligned address (the stored tag) of `addr`.
    #[inline]
    fn tag(&self, addr: u64) -> u64 {
        (addr >> self.block_shift) << self.block_shift
    }

    #[inline]
    fn touch(&mut self, index: usize) {
        self.tick += 1;
        self.lru[index] = self.tick;
    }

    #[inline]
    fn find(&self, addr: u64) -> Option<usize> {
        let tag = self.tag(addr);
        let start = self.set_start(addr);
        let set = &self.tags[start..start + self.assoc];
        set.iter()
            .enumerate()
            .position(|(way, &t)| t == tag && self.flags[start + way] & VALID != 0)
            .map(|way| start + way)
    }

    /// The line at `index` as it departs the cache.
    fn departing(&self, index: usize) -> EvictedLine {
        let flags = self.flags[index];
        EvictedLine {
            block_addr: self.tags[index],
            dirty: flags & DIRTY != 0,
            state: if flags & PREFETCHED_UNUSED != 0 {
                CacheLineState::PrefetchedUnused
            } else {
                CacheLineState::Demand
            },
        }
    }

    /// Returns `true` if the block containing `addr` is present.
    pub fn contains(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    /// Returns the usage state of the block containing `addr`, if present.
    pub fn line_state(&self, addr: u64) -> Option<CacheLineState> {
        self.find(addr).map(|i| self.departing(i).state)
    }

    /// Performs a demand access (load or store) to `addr`.
    ///
    /// On a miss the block is allocated (write-allocate) and the displaced
    /// line, if any, is returned in the outcome.
    ///
    /// A *store* to a line that was filled by a prefetch and never used by a
    /// demand access counts as a miss: stream requests behave like read
    /// requests in the coherence protocol (Section 3.2 of the paper), so the
    /// streamed copy is read-only and the store must still obtain write
    /// permission.  The line is kept (no refetch of the data), but the access
    /// is reported as a miss so upgrade latency and store-buffer pressure are
    /// modelled.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
        if let Some(i) = self.find(addr) {
            let was_prefetched = self.flags[i] & PREFETCHED_UNUSED != 0;
            self.flags[i] &= !PREFETCHED_UNUSED;
            if kind.is_write() {
                self.flags[i] |= DIRTY;
            }
            self.touch(i);
            // A store to an unused streamed line is an upgrade miss.
            let upgrade = kind.is_write() && was_prefetched;
            return AccessOutcome {
                hit: !upgrade,
                hit_on_prefetched: was_prefetched && !upgrade,
                evicted: None,
            };
        }
        let evicted = self.insert_absent(addr, kind.is_write(), false);
        AccessOutcome {
            hit: false,
            hit_on_prefetched: false,
            evicted,
        }
    }

    /// Fills `addr` as a prefetch/stream request.  Does nothing if the block
    /// is already present.  Returns the displaced line, if any.
    pub fn prefetch_fill(&mut self, addr: u64) -> Option<EvictedLine> {
        if self.contains(addr) {
            return None;
        }
        self.insert_absent(addr, false, true)
    }

    /// Fills `addr` without counting a demand access (used for write-backs
    /// arriving from an upper level).  Does nothing if the block is already
    /// present, other than marking it dirty when `dirty` is set.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<EvictedLine> {
        if let Some(i) = self.find(addr) {
            if dirty {
                self.flags[i] |= DIRTY;
            }
            self.touch(i);
            return None;
        }
        self.insert_absent(addr, dirty, false)
    }

    /// Allocates `addr`'s block, which the caller has just probed and found
    /// absent, displacing the first invalid way or else the LRU way of its
    /// set.  Returns the displaced valid line, if any.
    ///
    /// Callers that already know the block is absent (a stream fill after
    /// its residency check) use this to skip a second probe.
    pub(crate) fn insert_absent(
        &mut self,
        addr: u64,
        dirty: bool,
        prefetched: bool,
    ) -> Option<EvictedLine> {
        debug_assert!(!self.contains(addr), "insert_absent on a resident block");
        let start = self.set_start(addr);
        // Invalid ways carry stamp 0 and valid ways a nonzero one, so the
        // first smallest stamp is the first invalid way, else the LRU way.
        let mut victim = start;
        let mut best = u64::MAX;
        for (way, &stamp) in self.lru[start..start + self.assoc].iter().enumerate() {
            if stamp < best {
                best = stamp;
                victim = start + way;
            }
        }
        let evicted = (self.flags[victim] & VALID != 0).then(|| self.departing(victim));
        self.tags[victim] = self.tag(addr);
        self.flags[victim] =
            VALID | if dirty { DIRTY } else { 0 } | if prefetched { PREFETCHED_UNUSED } else { 0 };
        self.touch(victim);
        evicted
    }

    /// Invalidates the block containing `addr`, returning the removed line.
    pub fn invalidate(&mut self, addr: u64) -> Option<EvictedLine> {
        let i = self.find(addr)?;
        let old = self.departing(i);
        self.tags[i] = 0;
        self.flags[i] = 0;
        self.lru[i] = 0;
        Some(old)
    }

    /// Feeds every mutable field — the LRU clock and each line's tag, state
    /// bits and LRU stamp, in line order — into a state fingerprint.
    pub(crate) fn fingerprint_into(&self, fp: &mut FingerprintBuilder) {
        fp.mix(self.tick);
        fp.mix(self.tags.len() as u64);
        for ((&tag, &flags), &lru) in self.tags.iter().zip(&self.flags).zip(&self.lru) {
            fp.mix(tag);
            fp.mix_bool(flags & VALID != 0);
            fp.mix_bool(flags & DIRTY != 0);
            fp.mix_bool(flags & PREFETCHED_UNUSED != 0);
            fp.mix(lru);
        }
    }

    /// A digest of this cache's complete mutable state (see
    /// [`StateFingerprint`]).
    pub fn fingerprint(&self) -> StateFingerprint {
        let mut fp = FingerprintBuilder::new();
        self.fingerprint_into(&mut fp);
        fp.finish()
    }

    /// Number of valid lines currently resident (mainly for tests/debugging).
    pub fn resident_lines(&self) -> usize {
        self.flags.iter().filter(|&&f| f & VALID != 0).count()
    }

    /// Iterates over the block addresses of all resident lines.
    pub fn resident_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.tags
            .iter()
            .zip(&self.flags)
            .filter(|(_, &f)| f & VALID != 0)
            .map(|(&tag, _)| tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways x 64B = 512B cache.
        SetAssocCache::new(CacheConfig::new(512, 2, 64))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000, AccessKind::Read).hit);
        assert!(c.access(0x1000, AccessKind::Read).hit);
        assert!(c.access(0x103f, AccessKind::Read).hit, "same block");
        assert!(!c.access(0x1040, AccessKind::Read).hit, "next block");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three blocks mapping to the same set (set stride = 4*64 = 256).
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.access(a, AccessKind::Read);
        c.access(b, AccessKind::Read);
        c.access(a, AccessKind::Read); // a is now MRU
        let out = c.access(d, AccessKind::Read);
        let evicted = out.evicted.expect("set was full");
        assert_eq!(evicted.block_addr, b, "LRU line must be evicted");
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn writes_mark_dirty_and_eviction_reports_it() {
        let mut c = tiny();
        c.access(0x0000, AccessKind::Write);
        c.access(0x0100, AccessKind::Read);
        let out = c.access(0x0200, AccessKind::Read);
        // 0x0000 was accessed first and not re-touched, so it is the LRU.
        let evicted = out.evicted.unwrap();
        assert_eq!(evicted.block_addr, 0x0000);
        assert!(evicted.dirty);
    }

    #[test]
    fn prefetch_fill_and_demand_hit() {
        let mut c = tiny();
        assert!(c.prefetch_fill(0x2000).is_none());
        assert_eq!(c.line_state(0x2000), Some(CacheLineState::PrefetchedUnused));
        let out = c.access(0x2000, AccessKind::Read);
        assert!(out.hit);
        assert!(out.hit_on_prefetched);
        // A second access is an ordinary hit.
        let out = c.access(0x2000, AccessKind::Read);
        assert!(out.hit);
        assert!(!out.hit_on_prefetched);
        assert_eq!(c.line_state(0x2000), Some(CacheLineState::Demand));
    }

    #[test]
    fn store_to_unused_prefetched_line_is_an_upgrade_miss() {
        let mut c = tiny();
        c.prefetch_fill(0x2000);
        let out = c.access(0x2000, AccessKind::Write);
        assert!(
            !out.hit,
            "streamed copies are read-only; a store must upgrade"
        );
        assert!(out.evicted.is_none(), "the data stays resident");
        // After the upgrade the line behaves like a normal dirty line.
        assert_eq!(c.line_state(0x2000), Some(CacheLineState::Demand));
        assert!(c.access(0x2000, AccessKind::Write).hit);
    }

    #[test]
    fn prefetch_fill_is_idempotent_when_present() {
        let mut c = tiny();
        c.access(0x2000, AccessKind::Read);
        assert!(c.prefetch_fill(0x2000).is_none());
        // Still counts as a demand line.
        assert_eq!(c.line_state(0x2000), Some(CacheLineState::Demand));
    }

    #[test]
    fn eviction_of_unused_prefetch_is_reported() {
        let mut c = tiny();
        c.prefetch_fill(0x0000);
        c.access(0x0100, AccessKind::Read);
        let out = c.access(0x0200, AccessKind::Read);
        let evicted = out.evicted.unwrap();
        assert_eq!(evicted.state, CacheLineState::PrefetchedUnused);
    }

    #[test]
    fn invalidate_removes_block() {
        let mut c = tiny();
        c.access(0x3000, AccessKind::Write);
        let inv = c.invalidate(0x3000).unwrap();
        assert!(inv.dirty);
        assert!(!c.contains(0x3000));
        assert!(c.invalidate(0x3000).is_none());
    }

    #[test]
    fn resident_lines_counts() {
        let mut c = tiny();
        assert_eq!(c.resident_lines(), 0);
        c.access(0x0000, AccessKind::Read);
        c.access(0x1000, AccessKind::Read);
        assert_eq!(c.resident_lines(), 2);
        let blocks: Vec<u64> = c.resident_blocks().collect();
        assert!(blocks.contains(&0x0000) && blocks.contains(&0x1000));
    }

    #[test]
    fn large_block_size_behaviour() {
        // 2kB blocks: two addresses 1kB apart share a block.
        let mut c = SetAssocCache::new(CacheConfig::new(16 * 1024, 2, 2048));
        assert!(!c.access(0x0000, AccessKind::Read).hit);
        assert!(c.access(0x0400, AccessKind::Read).hit);
    }
}
