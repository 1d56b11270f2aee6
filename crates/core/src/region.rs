//! Spatial region geometry.

use crate::pattern::SpatialPattern;
use memsim::ConfigError;
use serde::{Deserialize, Serialize};

/// Geometry of spatial regions: the region size and the cache block size it
/// is divided into.
///
/// The paper fixes blocks at 64 B and sweeps regions from 128 B to the 8 kB
/// OS page size, settling on 2 kB (32 blocks) as the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionConfig {
    /// Spatial region size in bytes (power of two).
    pub region_bytes: u64,
    /// Cache block size in bytes (power of two, smaller than the region).
    pub block_bytes: u64,
}

impl RegionConfig {
    /// Creates a region configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message if the geometry fails
    /// [`validate`](Self::validate).
    pub fn new(region_bytes: u64, block_bytes: u64) -> Self {
        let config = Self {
            region_bytes,
            block_bytes,
        };
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        config
    }

    /// Checks the geometry: both sizes are powers of two, and a region
    /// holds at least two and at most [`SpatialPattern::MAX_BLOCKS`] blocks.
    ///
    /// The derived `Deserialize` does not run this check, so anything that
    /// decodes a region from untrusted input must call it before building a
    /// predictor.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.region_bytes.is_power_of_two() {
            return Err(ConfigError::new(
                "region_bytes",
                format!(
                    "region size must be a power of two (got {})",
                    self.region_bytes
                ),
            ));
        }
        if !self.block_bytes.is_power_of_two() {
            return Err(ConfigError::new(
                "block_bytes",
                format!(
                    "block size must be a power of two (got {})",
                    self.block_bytes
                ),
            ));
        }
        let blocks = self.region_bytes / self.block_bytes;
        if blocks < 2 {
            return Err(ConfigError::new(
                "region_bytes",
                format!(
                    "a region must span at least two blocks ({} B regions of {} B blocks)",
                    self.region_bytes, self.block_bytes
                ),
            ));
        }
        if blocks > u64::from(SpatialPattern::MAX_BLOCKS) {
            return Err(ConfigError::new(
                "region_bytes",
                format!(
                    "{} B regions of {} B blocks span {blocks} blocks; a pattern holds at most {}",
                    self.region_bytes,
                    self.block_bytes,
                    SpatialPattern::MAX_BLOCKS
                ),
            ));
        }
        Ok(())
    }

    /// The paper's default: 2 kB regions of 64 B blocks.
    pub fn paper_default() -> Self {
        Self::new(2048, 64)
    }

    /// Number of blocks per region.
    pub fn blocks_per_region(&self) -> u32 {
        (self.region_bytes / self.block_bytes) as u32
    }

    /// Region base address containing `addr`.
    pub fn region_base(&self, addr: u64) -> u64 {
        addr & !(self.region_bytes - 1)
    }

    /// Block offset of `addr` within its region.
    pub fn region_offset(&self, addr: u64) -> u32 {
        ((addr & (self.region_bytes - 1)) / self.block_bytes) as u32
    }

    /// Block-aligned address of `addr`.
    pub fn block_addr(&self, addr: u64) -> u64 {
        addr & !(self.block_bytes - 1)
    }

    /// Address of the block at `offset` within the region based at `base`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `offset` is outside the region.
    pub fn block_at(&self, base: u64, offset: u32) -> u64 {
        debug_assert!(offset < self.blocks_per_region());
        base + u64::from(offset) * self.block_bytes
    }
}

impl Default for RegionConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_geometry() {
        let r = RegionConfig::paper_default();
        assert_eq!(r.blocks_per_region(), 32);
        assert_eq!(r, RegionConfig::default());
    }

    #[test]
    fn base_offset_block_round_trip() {
        let r = RegionConfig::new(2048, 64);
        let addr = 0x1_2345u64;
        let base = r.region_base(addr);
        let off = r.region_offset(addr);
        assert_eq!(base % 2048, 0);
        assert_eq!(r.block_at(base, off), r.block_addr(addr));
    }

    #[test]
    fn eight_kb_regions_have_128_blocks() {
        let r = RegionConfig::new(8192, 64);
        assert_eq!(r.blocks_per_region(), 128);
        assert_eq!(r.region_offset(8191), 127);
    }

    #[test]
    fn oversized_region_is_a_structured_error() {
        let err = RegionConfig {
            region_bytes: 16384,
            block_bytes: 64,
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.field, "region_bytes");
        assert!(err.message.contains("256 blocks"), "{err}");
        assert_eq!(RegionConfig::new(8192, 64).validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "at least two blocks")]
    fn degenerate_region_rejected() {
        let _ = RegionConfig::new(64, 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = RegionConfig::new(3000, 64);
    }
}
