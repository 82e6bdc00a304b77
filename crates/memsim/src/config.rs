//! Cache and hierarchy configuration.

use serde::{Deserialize, Serialize};
use std::fmt;

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
    /// Panics if [`validate`](Self::validate) rejects the geometry.
    pub fn new(capacity_bytes: u64, associativity: u32, block_bytes: u64) -> Self {
        let config = Self {
            capacity_bytes,
            associativity,
            block_bytes,
        };
        if let Err(error) = config.validate() {
            panic!("{error}");
        }
        config
    }

    /// Checks that the geometry describes a cache the model can simulate: a
    /// positive capacity and associativity, a power-of-two block size, a
    /// capacity that is a multiple of `associativity * block_bytes`, and a
    /// power-of-two set count.  A cache finds a set by shift and mask, so a
    /// geometry that fails is rejected rather than simulated.
    ///
    /// # Errors
    ///
    /// The first invariant the geometry breaks.
    pub fn validate(&self) -> Result<(), GeometryError> {
        if self.capacity_bytes == 0 {
            return Err(GeometryError::ZeroCapacity);
        }
        if self.associativity == 0 {
            return Err(GeometryError::ZeroAssociativity);
        }
        if !self.block_bytes.is_power_of_two() {
            return Err(GeometryError::BlockNotPowerOfTwo);
        }
        let way_block = u64::from(self.associativity).checked_mul(self.block_bytes);
        if !way_block.is_some_and(|bytes| self.capacity_bytes.is_multiple_of(bytes)) {
            return Err(GeometryError::CapacityNotMultiple);
        }
        if !self.num_sets().is_power_of_two() {
            return Err(GeometryError::SetsNotPowerOfTwo);
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

/// An invariant a [`CacheConfig`] breaks (see [`CacheConfig::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// The capacity is zero.
    ZeroCapacity,
    /// The associativity is zero.
    ZeroAssociativity,
    /// The block size is not a power of two.
    BlockNotPowerOfTwo,
    /// The capacity is not a multiple of `associativity * block_bytes`.
    CapacityNotMultiple,
    /// The number of sets is not a power of two.
    SetsNotPowerOfTwo,
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GeometryError::ZeroCapacity => "capacity must be positive",
            GeometryError::ZeroAssociativity => "associativity must be positive",
            GeometryError::BlockNotPowerOfTwo => "block size must be a power of two",
            GeometryError::CapacityNotMultiple => {
                "capacity must be a multiple of associativity * block size"
            }
            GeometryError::SetsNotPowerOfTwo => "number of sets must be a power of two",
        })
    }
}

impl std::error::Error for GeometryError {}

/// Configuration for one processor's private two-level hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Primary data cache.
    pub l1: CacheConfig,
    /// Secondary cache.
    pub l2: CacheConfig,
}

impl HierarchyConfig {
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
        // Two addresses one set-stride apart map to the same set: in a
        // direct-mapped cache of the same geometry the second evicts the
        // first, while an address one block further lands in another set.
        let stride = c.num_sets() * c.block_bytes;
        let mut direct = crate::cache::SetAssocCache::new(CacheConfig::new(
            c.num_sets() * c.block_bytes,
            1,
            c.block_bytes,
        ));
        direct.fill(0x1000, false);
        assert!(direct.fill(0x1000 + c.block_bytes, false).is_none());
        let evicted = direct.fill(0x1000 + stride, false).expect("same set");
        assert_eq!(evicted.block_addr, 0x1000);
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
    fn validate_names_the_broken_invariant() {
        let config = |capacity_bytes, associativity, block_bytes| CacheConfig {
            capacity_bytes,
            associativity,
            block_bytes,
        };
        assert_eq!(config(64 * 1024, 2, 64).validate(), Ok(()));
        assert_eq!(
            config(64 * 1024, 2, 96).validate(),
            Err(GeometryError::BlockNotPowerOfTwo)
        );
        assert_eq!(
            config(0, 2, 64).validate(),
            Err(GeometryError::ZeroCapacity)
        );
        assert_eq!(
            config(1024, 0, 64).validate(),
            Err(GeometryError::ZeroAssociativity)
        );
        assert_eq!(
            config(1000, 2, 64).validate(),
            Err(GeometryError::CapacityNotMultiple)
        );
        assert_eq!(
            config(u64::MAX, u32::MAX, 1 << 62).validate(),
            Err(GeometryError::CapacityNotMultiple)
        );
        assert_eq!(
            config(3 * 128, 2, 64).validate(),
            Err(GeometryError::SetsNotPowerOfTwo)
        );
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn bad_capacity_rejected() {
        let _ = CacheConfig::new(100_000, 3, 64);
    }

    #[test]
    fn scaled_hierarchy_is_smaller() {
        let s = HierarchyConfig::scaled();
        let t = HierarchyConfig::table1();
        assert!(s.l2.capacity_bytes < t.l2.capacity_bytes);
        assert_eq!(HierarchyConfig::default(), t);
    }
}
