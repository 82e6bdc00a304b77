//! Prediction registers and the streaming engine.
//!
//! When a trigger access hits in the PHT, the region base address and the
//! predicted pattern are copied into a prediction register.  The streaming
//! engine walks the active registers round-robin, issuing one block request
//! at a time and clearing the corresponding pattern bit; a register is freed
//! once its pattern is exhausted (Section 3.2).
//!
//! The file counts its live registers, so a drain stops the moment none is
//! left instead of lapping empty slots, and its cursor wraps with a compare
//! rather than a `% n`.  Two facts make that exact:
//!
//! * a live register always holds a non-empty pattern: `allocate` ignores
//!   an empty pattern, and a register is freed as soon as its pattern
//!   empties;
//! * a lap of `n` empty slots leaves the cursor where the lap began, which is
//!   where the drain stops now, just past the last register it streamed.

use crate::pattern::SpatialPattern;
use crate::region::RegionConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

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

/// An invariant a [`StreamerConfig`] breaks (see [`StreamerConfig::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamerError {
    /// The file has no prediction register.
    NoRegisters,
    /// The file has more than [`memsim::MAX_TABLE_ENTRIES`] registers.
    TooManyRegisters,
}

impl fmt::Display for StreamerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamerError::NoRegisters => f.write_str("need at least one prediction register"),
            StreamerError::TooManyRegisters => write!(
                f,
                "at most {} prediction registers",
                memsim::MAX_TABLE_ENTRIES
            ),
        }
    }
}

impl std::error::Error for StreamerError {}

impl StreamerConfig {
    /// The configuration used for the paper's practical SMS: 16 registers,
    /// draining up to 4 stream requests per demand access.
    pub fn paper_default() -> Self {
        Self {
            registers: 16,
            requests_per_access: 4,
        }
    }

    /// Checks that the file has at least one register and at most
    /// [`memsim::MAX_TABLE_ENTRIES`].
    ///
    /// # Errors
    ///
    /// [`StreamerError::NoRegisters`] for a file of zero registers,
    /// [`StreamerError::TooManyRegisters`] past the bound.
    pub fn validate(&self) -> Result<(), StreamerError> {
        if self.registers == 0 {
            return Err(StreamerError::NoRegisters);
        }
        if self.registers > memsim::MAX_TABLE_ENTRIES {
            return Err(StreamerError::TooManyRegisters);
        }
        Ok(())
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
    /// Registers that are `Some`; each holds a non-empty pattern.
    live: usize,
    cursor: usize,
    tick: u64,
    dropped_allocations: u64,
}

impl PredictionRegisterFile {
    /// Creates an empty register file.
    ///
    /// # Panics
    ///
    /// Panics if [`StreamerConfig::validate`] rejects the configuration.
    pub fn new(region: RegionConfig, config: StreamerConfig) -> Self {
        if let Err(error) = config.validate() {
            panic!("{error}");
        }
        Self {
            region,
            config,
            registers: vec![None; config.registers],
            live: 0,
            cursor: 0,
            tick: 0,
            dropped_allocations: 0,
        }
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
            .registers
            .iter()
            .position(|r| r.as_ref().is_some_and(|r| r.region_base == region_base))
            .or_else(|| self.registers.iter().position(|r| r.is_none()));
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
        if self.registers[slot].is_none() {
            self.live += 1;
        }
        self.registers[slot] = Some(PredictionRegister {
            region_base,
            pattern,
            allocated_at: self.tick,
        });
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
    pub fn drain_into(&mut self, max_requests: usize, out: &mut Vec<u64>) {
        let mut issued = 0;
        while issued < max_requests && self.live > 0 {
            let idx = self.cursor;
            self.cursor += 1;
            if self.cursor == self.registers.len() {
                self.cursor = 0;
            }
            let Some(reg) = self.registers[idx].as_mut() else {
                continue;
            };
            let offset = reg
                .pattern
                .first_set()
                .expect("a live register holds a non-empty pattern");
            reg.pattern.clear(offset);
            out.push(self.region.block_at(reg.region_base, offset));
            issued += 1;
            if reg.pattern.is_empty() {
                self.registers[idx] = None;
                self.live -= 1;
            }
        }
    }

    /// Number of registers currently holding un-issued predictions.
    pub fn active_registers(&self) -> usize {
        self.live
    }

    /// Number of allocations that displaced a still-active register.
    pub fn dropped_allocations(&self) -> u64 {
        self.dropped_allocations
    }
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
    fn reallocation_for_same_region_overwrites() {
        let mut f = file(4, 8);
        f.allocate(0x10_0000, pat(&[0]));
        f.allocate(0x10_0000, pat(&[7]));
        let reqs = f.drain();
        assert_eq!(reqs, vec![0x10_0000 + 7 * 64]);
    }
}
