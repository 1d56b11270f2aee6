//! Prediction registers and the streaming engine.
//!
//! When a trigger access hits in the PHT, the region base address and the
//! predicted pattern are copied into a prediction register.  The streaming
//! engine walks the active registers round-robin, issuing one block request
//! at a time and clearing the corresponding pattern bit; a register is freed
//! once its pattern is exhausted (Section 3.2).
//!
//! The streamer drains up to 4 requests on every demand access, so the walk
//! is on the simulator's per-access path.  The file keeps an occupancy
//! bitmask of its live registers beside them: an idle file is one mask test,
//! and the next live register at or after the round-robin cursor is a
//! `trailing_zeros` scan rather than a modulo step per empty register.  Two
//! invariants keep the mask exact: a bit is set exactly when its register is
//! live, and a live register always holds a non-empty pattern (empty
//! predictions are never allocated, and a register is freed the moment it
//! issues its last block).

use crate::pattern::SpatialPattern;
use crate::region::RegionConfig;
use memsim::ConfigError;
use serde::{Deserialize, Serialize};

/// Configuration of the prediction-register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamerConfig {
    /// Number of prediction registers (concurrently-streamed regions).
    pub registers: usize,
    /// Stream requests issued per demand access processed; models the
    /// paper's 16 outstanding SMS stream-request slots feeding from the
    /// register file at a bounded rate.
    pub requests_per_access: usize,
}

impl StreamerConfig {
    /// Checks that the file has at least one register (any count above
    /// that is allowed; the occupancy mask grows with it).
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming `registers`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.registers == 0 {
            return Err(ConfigError::new(
                "registers",
                "need at least one prediction register",
            ));
        }
        Ok(())
    }

    /// The configuration used for the paper's practical SMS: 16 registers,
    /// draining up to 4 stream requests per demand access.
    pub fn paper_default() -> Self {
        Self {
            registers: 16,
            requests_per_access: 4,
        }
    }
}

impl Default for StreamerConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[derive(Debug, Clone)]
struct PredictionRegister {
    region_base: u64,
    pattern: SpatialPattern,
    allocated_at: u64,
}

/// The file of prediction registers for one processor.
#[derive(Debug, Clone)]
pub struct PredictionRegisterFile {
    region: RegionConfig,
    config: StreamerConfig,
    registers: Vec<Option<PredictionRegister>>,
    /// Occupancy bitmask: bit `i` of word `i / 64` is set exactly when
    /// register `i` is live.  A live register always holds a non-empty
    /// pattern.
    live: Vec<u64>,
    cursor: usize,
    tick: u64,
    dropped_allocations: u64,
}

impl PredictionRegisterFile {
    /// Creates an empty register file.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero registers.
    pub fn new(region: RegionConfig, config: StreamerConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        Self {
            region,
            config,
            registers: vec![None; config.registers],
            live: vec![0; config.registers.div_ceil(64)],
            cursor: 0,
            tick: 0,
            dropped_allocations: 0,
        }
    }

    fn is_live(&self, index: usize) -> bool {
        self.live[index / 64] & (1 << (index % 64)) != 0
    }

    fn set_live(&mut self, index: usize, register: PredictionRegister) {
        self.registers[index] = Some(register);
        self.live[index / 64] |= 1 << (index % 64);
    }

    fn free(&mut self, index: usize) {
        self.registers[index] = None;
        self.live[index / 64] &= !(1 << (index % 64));
    }

    /// Iterates over the indices of the live registers in ascending order.
    fn live_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.live
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| set_bits(word).map(move |bit| w * 64 + bit))
    }

    /// The first live register at or after `from`, wrapping around the
    /// file; `None` when no register is live.
    fn next_live(&self, from: usize) -> Option<usize> {
        let word = from / 64;
        let above = self.live[word] & (u64::MAX << (from % 64));
        if above != 0 {
            return Some(word * 64 + above.trailing_zeros() as usize);
        }
        // Later words, then wrap to the start; the wrap may revisit `word`,
        // whose bits at or above `from` are already known to be clear.
        (word + 1..self.live.len())
            .chain(0..=word)
            .find(|&w| self.live[w] != 0)
            .map(|w| w * 64 + self.live[w].trailing_zeros() as usize)
    }

    /// Allocates a register for a newly-predicted generation.
    ///
    /// The predicted `pattern` should already have the trigger block cleared
    /// (it is being demand-fetched).  If every register is busy, the oldest
    /// allocation is replaced and counted in
    /// [`dropped_allocations`](Self::dropped_allocations).
    pub fn allocate(&mut self, region_base: u64, pattern: SpatialPattern) {
        self.tick += 1;
        if pattern.is_empty() {
            return;
        }
        // Reuse an existing register for the same region, or a free one.
        let slot = self
            .live_indices()
            .find(|&i| self.registers[i].as_ref().map(|r| r.region_base) == Some(region_base))
            .or_else(|| (0..self.registers.len()).find(|&i| !self.is_live(i)));
        let slot = match slot {
            Some(s) => s,
            None => {
                self.dropped_allocations += 1;
                self.registers
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, r)| r.as_ref().map(|r| r.allocated_at).unwrap_or(0))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            }
        };
        self.set_live(
            slot,
            PredictionRegister {
                region_base,
                pattern,
                allocated_at: self.tick,
            },
        );
    }

    /// Cancels any pending stream requests for the region containing
    /// `block_addr` (used when the region's generation ends before streaming
    /// finished).
    pub fn cancel_region(&mut self, block_addr: u64) {
        let base = self.region.region_base(block_addr);
        for w in 0..self.live.len() {
            for bit in set_bits(self.live[w]) {
                let i = w * 64 + bit;
                if self.registers[i].as_ref().map(|r| r.region_base) == Some(base) {
                    self.free(i);
                }
            }
        }
    }

    /// Issues up to `config.requests_per_access` stream requests, walking the
    /// registers round-robin.  Returns block addresses to fetch.
    pub fn drain(&mut self) -> Vec<u64> {
        self.drain_up_to(self.config.requests_per_access)
    }

    /// Issues up to `max_requests` stream requests.
    pub fn drain_up_to(&mut self, max_requests: usize) -> Vec<u64> {
        let mut out = Vec::new();
        self.drain_into(max_requests, &mut out);
        out
    }

    /// Issues up to `config.requests_per_access` stream requests into `out`
    /// (appending), the allocation-free path of the driver's batched hot
    /// loop.
    pub fn drain_default_into(&mut self, out: &mut Vec<u64>) {
        self.drain_into(self.config.requests_per_access, out);
    }

    /// Issues up to `max_requests` stream requests, appending the block
    /// addresses to `out` in the same round-robin order
    /// [`drain_up_to`](Self::drain_up_to) returns them.
    ///
    /// Each request comes from the next live register at or after the
    /// cursor, found with a `trailing_zeros` scan of the occupancy mask; the
    /// cursor then moves just past that register.  With no live register the
    /// call returns at once and leaves the cursor where it was.
    pub fn drain_into(&mut self, max_requests: usize, out: &mut Vec<u64>) {
        let n = self.registers.len();
        for _ in 0..max_requests {
            let Some(idx) = self.next_live(self.cursor) else {
                return;
            };
            self.cursor = if idx + 1 == n { 0 } else { idx + 1 };
            let reg = self.registers[idx]
                .as_mut()
                .expect("the occupancy mask marks only live registers");
            let offset = reg
                .pattern
                .first_set()
                .expect("a live register holds a non-empty pattern");
            reg.pattern.clear(offset);
            out.push(self.region.block_at(reg.region_base, offset));
            if reg.pattern.is_empty() {
                self.free(idx);
            }
        }
    }

    /// Number of registers currently holding un-issued predictions.
    pub fn active_registers(&self) -> usize {
        self.live.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of allocations that displaced a still-active register.
    pub fn dropped_allocations(&self) -> u64 {
        self.dropped_allocations
    }
}

/// The positions of the set bits of `word`, lowest first.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(registers: usize, per_access: usize) -> PredictionRegisterFile {
        PredictionRegisterFile::new(
            RegionConfig::paper_default(),
            StreamerConfig {
                registers,
                requests_per_access: per_access,
            },
        )
    }

    fn pat(offsets: &[u32]) -> SpatialPattern {
        SpatialPattern::from_offsets(32, offsets)
    }

    #[test]
    fn drains_pattern_as_block_addresses() {
        let mut f = file(4, 8);
        f.allocate(0x10_0000, pat(&[1, 3]));
        let reqs = f.drain();
        assert_eq!(reqs, vec![0x10_0000 + 64, 0x10_0000 + 3 * 64]);
        assert_eq!(f.active_registers(), 0);
        assert!(f.drain().is_empty());
    }

    #[test]
    fn rate_limit_respected() {
        let mut f = file(4, 2);
        f.allocate(0x10_0000, pat(&[0, 1, 2, 3, 4]));
        assert_eq!(f.drain().len(), 2);
        assert_eq!(f.drain().len(), 2);
        assert_eq!(f.drain().len(), 1);
        assert!(f.drain().is_empty());
    }

    #[test]
    fn round_robin_across_registers() {
        let mut f = file(2, 2);
        f.allocate(0x10_0000, pat(&[0, 1]));
        f.allocate(0x20_0000, pat(&[5, 6]));
        let first = f.drain();
        // One request from each active register.
        assert_eq!(first.len(), 2);
        let regions: std::collections::HashSet<u64> = first.iter().map(|a| a & !2047).collect();
        assert_eq!(regions.len(), 2, "requests must alternate between regions");
    }

    #[test]
    fn empty_pattern_allocation_is_ignored() {
        let mut f = file(2, 4);
        f.allocate(0x10_0000, SpatialPattern::new(32));
        assert_eq!(f.active_registers(), 0);
    }

    #[test]
    fn full_file_replaces_oldest() {
        let mut f = file(2, 1);
        f.allocate(0x10_0000, pat(&[0]));
        f.allocate(0x20_0000, pat(&[0]));
        f.allocate(0x30_0000, pat(&[0]));
        assert_eq!(f.dropped_allocations(), 1);
        assert_eq!(f.active_registers(), 2);
    }

    #[test]
    fn cancel_region_discards_pending_requests() {
        let mut f = file(2, 4);
        f.allocate(0x10_0000, pat(&[0, 1, 2]));
        f.cancel_region(0x10_0040);
        assert_eq!(f.active_registers(), 0);
        assert!(f.drain().is_empty());
    }

    #[test]
    fn drain_up_to_zero_budget_issues_nothing_and_keeps_state() {
        let mut f = file(2, 4);
        f.allocate(0x10_0000, pat(&[0, 1, 2]));
        assert!(f.drain_up_to(0).is_empty());
        assert_eq!(f.active_registers(), 1, "zero budget must not consume");
        // The pending requests are still all there afterwards.
        assert_eq!(f.drain_up_to(8).len(), 3);
    }

    #[test]
    fn drain_up_to_budget_larger_than_queue_drains_everything_once() {
        let mut f = file(4, 1);
        f.allocate(0x10_0000, pat(&[0, 1]));
        f.allocate(0x20_0000, pat(&[5]));
        let reqs = f.drain_up_to(1000);
        assert_eq!(reqs.len(), 3, "oversized budget drains exactly the queue");
        assert_eq!(f.active_registers(), 0);
        assert!(f.drain_up_to(1000).is_empty(), "nothing left to issue");
    }

    #[test]
    fn cancel_then_drain_skips_cancelled_region_only() {
        let mut f = file(4, 8);
        f.allocate(0x10_0000, pat(&[0, 1]));
        f.allocate(0x20_0000, pat(&[2, 3]));
        f.cancel_region(0x10_0040);
        let reqs = f.drain_up_to(8);
        assert_eq!(reqs, vec![0x20_0000 + 2 * 64, 0x20_0000 + 3 * 64]);
        assert_eq!(f.active_registers(), 0);
        // Cancelling an already-cancelled (or never-allocated) region and
        // draining again is a no-op.
        f.cancel_region(0x10_0040);
        f.cancel_region(0x30_0000);
        assert!(f.drain_up_to(4).is_empty());
    }

    #[test]
    fn reallocation_for_same_region_overwrites() {
        let mut f = file(4, 8);
        f.allocate(0x10_0000, pat(&[0]));
        f.allocate(0x10_0000, pat(&[7]));
        let reqs = f.drain();
        assert_eq!(reqs, vec![0x10_0000 + 7 * 64]);
    }
}
