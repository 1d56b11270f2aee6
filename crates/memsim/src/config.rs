//! Cache and hierarchy configuration.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A configuration field that violates an invariant of the structure it
/// configures: the structured error for geometry decoded from untrusted
/// input (spec files, protocol frames, plugin parameters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Dotted path of the offending field, such as `l1.block_bytes`.
    pub field: String,
    /// What is wrong with the field's value.
    pub message: String,
}

impl ConfigError {
    /// An error for `field`.
    pub fn new(field: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            field: field.into(),
            message: message.into(),
        }
    }

    /// The same error with `parent` prepended to the field path, for a
    /// configuration nested inside another.
    pub fn within(mut self, parent: &str) -> Self {
        self.field = format!("{parent}.{}", self.field);
        self
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Geometry of a single set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Number of ways per set.
    pub associativity: u32,
    /// Block (line) size in bytes; must be a power of two.
    pub block_bytes: u64,
}

impl CacheConfig {
    /// Creates a configuration, validating its invariants.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message if the geometry is invalid
    /// (see [`validate`](Self::validate)).
    pub fn new(capacity_bytes: u64, associativity: u32, block_bytes: u64) -> Self {
        let config = Self {
            capacity_bytes,
            associativity,
            block_bytes,
        };
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        config
    }

    /// Checks the geometry invariants [`SetAssocCache`](crate::SetAssocCache)
    /// relies on: every parameter is positive, `block_bytes` is a power of
    /// two, the capacity is a multiple of `associativity * block_bytes`, and
    /// the resulting set count is a power of two (so a set index is a shift
    /// and a mask).
    ///
    /// The derived `Deserialize` does not run this check, so anything that
    /// decodes a configuration from untrusted input must call it before
    /// building a cache.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.capacity_bytes == 0 {
            return Err(ConfigError::new(
                "capacity_bytes",
                "capacity must be positive",
            ));
        }
        if self.associativity == 0 {
            return Err(ConfigError::new(
                "associativity",
                "associativity must be positive",
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
        let set_bytes = u64::from(self.associativity).checked_mul(self.block_bytes);
        if !set_bytes.is_some_and(|b| self.capacity_bytes.is_multiple_of(b)) {
            return Err(ConfigError::new(
                "capacity_bytes",
                format!(
                    "capacity {} must be a multiple of associativity * block size",
                    self.capacity_bytes
                ),
            ));
        }
        if !self.num_sets().is_power_of_two() {
            return Err(ConfigError::new(
                "capacity_bytes",
                format!(
                    "capacity {} gives {} sets; the number of sets must be a power of two",
                    self.capacity_bytes,
                    self.num_sets()
                ),
            ));
        }
        Ok(())
    }

    /// The paper's L1 data cache: 64 KB, 2-way, 64 B blocks (Table 1).
    pub fn l1_table1() -> Self {
        Self::new(64 * 1024, 2, 64)
    }

    /// The paper's unified L2 cache: 8 MB, 8-way, 64 B blocks (Table 1).
    pub fn l2_table1() -> Self {
        Self::new(8 * 1024 * 1024, 8, 64)
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.capacity_bytes / (u64::from(self.associativity) * self.block_bytes)
    }

    /// Total number of cache lines.
    pub fn num_lines(&self) -> u64 {
        self.capacity_bytes / self.block_bytes
    }

    /// Block-aligned address of the block containing `addr`.
    pub fn block_addr(&self, addr: u64) -> u64 {
        addr & !(self.block_bytes - 1)
    }

    /// Set index for `addr`.
    pub fn set_index(&self, addr: u64) -> u64 {
        (addr >> self.block_bytes.trailing_zeros()) & (self.num_sets() - 1)
    }

    /// Returns a copy of this configuration with a different block size but
    /// the same capacity and associativity (used for the block-size sweep in
    /// Figure 4).
    ///
    /// # Panics
    ///
    /// Panics if the resulting geometry is invalid.
    pub fn with_block_bytes(&self, block_bytes: u64) -> Self {
        Self::new(self.capacity_bytes, self.associativity, block_bytes)
    }
}

/// Configuration for one processor's private two-level hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Primary data cache.
    pub l1: CacheConfig,
    /// Secondary cache.
    pub l2: CacheConfig,
}

impl HierarchyConfig {
    /// Checks both levels' geometry (see [`CacheConfig::validate`]).
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] whose field is prefixed with the level (`l1.` or
    /// `l2.`).
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.l1.validate().map_err(|e| e.within("l1"))?;
        self.l2.validate().map_err(|e| e.within("l2"))
    }

    /// The hierarchy of Table 1 in the paper.
    pub fn table1() -> Self {
        Self {
            l1: CacheConfig::l1_table1(),
            l2: CacheConfig::l2_table1(),
        }
    }

    /// A scaled-down hierarchy for laptop-scale experiments: 32 KB 2-way L1
    /// and 1 MB 8-way L2.
    ///
    /// The paper's traces span billions of instructions against an 8 MB L2;
    /// the reproduction's traces are shorter, so a proportionally smaller L2
    /// preserves the ratio of working-set size to cache capacity and keeps
    /// off-chip misses observable.
    pub fn scaled() -> Self {
        Self {
            l1: CacheConfig::new(32 * 1024, 2, 64),
            l2: CacheConfig::new(1024 * 1024, 8, 64),
        }
    }

    /// Builds a hierarchy whose caches use `block_bytes`-sized blocks but
    /// keep Table 1 capacities (for the Figure 4 block-size sweep).
    pub fn with_block_bytes(&self, block_bytes: u64) -> Self {
        Self {
            l1: self.l1.with_block_bytes(block_bytes),
            l2: self.l2.with_block_bytes(block_bytes),
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_geometry() {
        let l1 = CacheConfig::l1_table1();
        assert_eq!(l1.num_sets(), 512);
        assert_eq!(l1.num_lines(), 1024);
        let l2 = CacheConfig::l2_table1();
        assert_eq!(l2.num_lines(), 131072);
    }

    #[test]
    fn block_and_set_math() {
        let c = CacheConfig::new(64 * 1024, 2, 64);
        assert_eq!(c.block_addr(0x12345), 0x12340);
        assert!(c.set_index(0x12345) < c.num_sets());
        // Two addresses one set-stride apart map to the same set.
        let stride = c.num_sets() * c.block_bytes;
        assert_eq!(c.set_index(0x1000), c.set_index(0x1000 + stride));
    }

    #[test]
    fn with_block_bytes_keeps_capacity() {
        let c = CacheConfig::l1_table1().with_block_bytes(2048);
        assert_eq!(c.capacity_bytes, 64 * 1024);
        assert_eq!(c.block_bytes, 2048);
        assert_eq!(c.num_sets(), 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_block_rejected() {
        let _ = CacheConfig::new(64 * 1024, 2, 96);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn bad_capacity_rejected() {
        let _ = CacheConfig::new(100_000, 3, 64);
    }

    #[test]
    fn validate_names_the_offending_field() {
        let zero_block = HierarchyConfig {
            l1: CacheConfig {
                capacity_bytes: 32 * 1024,
                associativity: 2,
                block_bytes: 0,
            },
            l2: CacheConfig::l2_table1(),
        };
        let err = zero_block.validate().unwrap_err();
        assert_eq!(err.field, "l1.block_bytes");
        assert!(err.message.contains("power of two"), "{err}");

        // 3 sets of 2 ways of 64 B: a multiple, but not a power-of-two set
        // count, so a set mask would never reach some sets.
        let three_sets = HierarchyConfig {
            l1: CacheConfig::l1_table1(),
            l2: CacheConfig {
                capacity_bytes: 3 * 2 * 64,
                associativity: 2,
                block_bytes: 64,
            },
        };
        let err = three_sets.validate().unwrap_err();
        assert_eq!(err.field, "l2.capacity_bytes");
        assert!(err.message.contains("3 sets"), "{err}");
        assert_eq!(
            err.to_string(),
            format!("l2.capacity_bytes: {}", err.message)
        );

        let overflow = CacheConfig {
            capacity_bytes: 64,
            associativity: u32::MAX,
            block_bytes: 1 << 63,
        };
        assert_eq!(overflow.validate().unwrap_err().field, "capacity_bytes");
        assert_eq!(HierarchyConfig::scaled().validate(), Ok(()));
    }

    #[test]
    fn scaled_hierarchy_is_smaller() {
        let s = HierarchyConfig::scaled();
        let t = HierarchyConfig::table1();
        assert!(s.l2.capacity_bytes < t.l2.capacity_bytes);
        assert_eq!(HierarchyConfig::default(), t);
    }
}
