//! Spatial region geometry.
//!
//! [`RegionConfig::region_offset`] finds a block's offset with a shift by
//! `block_bytes.trailing_zeros()`, not a division: it runs on every access
//! the predictor sees. The shift equals the division only for a
//! power-of-two block, which [`RegionConfig::validate`] requires; every
//! SMS-family plugin runs that check before it builds a predictor, and
//! [`RegionConfig::new`] panics on a geometry it rejects.

use crate::pattern::SpatialPattern;
use serde::{Deserialize, Serialize};
use std::fmt;

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

/// An invariant a [`RegionConfig`] breaks (see [`RegionConfig::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionError {
    /// The region size is not a power of two.
    RegionNotPowerOfTwo,
    /// The block size is not a power of two.
    BlockNotPowerOfTwo,
    /// The region holds fewer than two blocks.
    TooFewBlocks,
    /// The region holds more blocks than a [`SpatialPattern`] can describe.
    TooManyBlocks,
}

impl fmt::Display for RegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionError::RegionNotPowerOfTwo => f.write_str("region size must be a power of two"),
            RegionError::BlockNotPowerOfTwo => f.write_str("block size must be a power of two"),
            RegionError::TooFewBlocks => f.write_str("a region must span at least two blocks"),
            RegionError::TooManyBlocks => write!(
                f,
                "a region must span at most {} blocks",
                SpatialPattern::MAX_BLOCKS
            ),
        }
    }
}

impl std::error::Error for RegionError {}

impl RegionConfig {
    /// Creates a region configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`RegionError`] message if [`validate`](Self::validate)
    /// rejects the geometry.
    pub fn new(region_bytes: u64, block_bytes: u64) -> Self {
        let config = Self {
            region_bytes,
            block_bytes,
        };
        if let Err(error) = config.validate() {
            panic!("{error}");
        }
        config
    }

    /// Checks that the geometry can be simulated: power-of-two region and
    /// block sizes, and between 2 and [`SpatialPattern::MAX_BLOCKS`] blocks
    /// per region.
    ///
    /// # Errors
    ///
    /// The first invariant the geometry breaks.
    pub fn validate(&self) -> Result<(), RegionError> {
        if !self.region_bytes.is_power_of_two() {
            return Err(RegionError::RegionNotPowerOfTwo);
        }
        if !self.block_bytes.is_power_of_two() {
            return Err(RegionError::BlockNotPowerOfTwo);
        }
        let blocks = self.region_bytes / self.block_bytes;
        if blocks < 2 {
            return Err(RegionError::TooFewBlocks);
        }
        if blocks > u64::from(SpatialPattern::MAX_BLOCKS) {
            return Err(RegionError::TooManyBlocks);
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
        ((addr & (self.region_bytes - 1)) >> self.block_bytes.trailing_zeros()) as u32
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
    #[should_panic(expected = "at least two blocks")]
    fn degenerate_region_rejected() {
        let _ = RegionConfig::new(64, 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = RegionConfig::new(3000, 64);
    }

    #[test]
    fn validate_names_the_broken_invariant() {
        let cases = [
            (2048, 96, RegionError::BlockNotPowerOfTwo),
            (2048, 0, RegionError::BlockNotPowerOfTwo),
            (3000, 64, RegionError::RegionNotPowerOfTwo),
            (64, 64, RegionError::TooFewBlocks),
            (16384, 64, RegionError::TooManyBlocks),
            (1 << 63, 1, RegionError::TooManyBlocks),
        ];
        for (region_bytes, block_bytes, want) in cases {
            let config = RegionConfig {
                region_bytes,
                block_bytes,
            };
            assert_eq!(config.validate(), Err(want), "{config:?}");
        }
        assert_eq!(RegionConfig::new(8192, 64).validate(), Ok(()));
    }

    #[test]
    fn offset_shift_matches_division() {
        for block_log in 0..8 {
            for blocks_log in 1..=7 {
                let block = 1u64 << block_log;
                let region = block << blocks_log;
                let r = RegionConfig::new(region, block);
                for addr in [0, block - 1, block, region - 1, 5 * region + 3 * block + 1] {
                    assert_eq!(u64::from(r.region_offset(addr)), addr % region / block);
                }
            }
        }
    }
}
