//! The interface between the memory system and prefetch/streaming engines.
//!
//! A [`Prefetcher`] observes every demand access together with its
//! [`SystemOutcome`] (hits, misses, evictions, remote invalidations) and may
//! respond with fill requests targeted at the L1 (streaming, as SMS does) or
//! the L2 (conventional prefetching, as the GHB baseline does).  The
//! [`driver`](crate::driver) applies those fills and reports back any lines
//! they displace, so predictors that track cache contents (such as the SMS
//! active generation table) stay consistent.

use crate::system::SystemOutcome;
use trace::MemAccess;

/// Which cache level a prefetch request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchLevel {
    /// Stream directly into the primary cache (SMS).
    L1,
    /// Prefetch into the secondary cache only (GHB).
    L2,
}

/// A single block-fill request issued by a prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Processor whose cache should receive the block.
    pub cpu: u8,
    /// Byte address within the requested block.
    pub addr: u64,
    /// Target level.
    pub level: PrefetchLevel,
}

/// A prefetch or streaming engine attached to the simulated memory system.
///
/// Implementations hold per-processor state internally; the driver calls them
/// with accesses from all processors in global order.
pub trait Prefetcher {
    /// Observes a demand access and its outcome, appending the blocks to
    /// fetch to `out`.
    ///
    /// The driver's loop owns one request buffer, drains it after every
    /// access, in order, and hands it back here, so no access allocates a
    /// vector of its own.
    fn on_access_into(
        &mut self,
        access: &MemAccess,
        outcome: &SystemOutcome,
        out: &mut Vec<PrefetchRequest>,
    );

    /// Notifies the prefetcher that applying one of its own fills displaced
    /// `block_addr` from `cpu`'s primary cache.
    fn on_stream_eviction(&mut self, _cpu: u8, _block_addr: u64) {}

    /// A short name for reports.
    fn name(&self) -> &str;
}

/// A prefetcher that never prefetches; used for baseline runs.
#[derive(Debug, Default, Clone)]
pub struct NullPrefetcher;

impl NullPrefetcher {
    /// Creates the null prefetcher.
    pub fn new() -> Self {
        Self
    }
}

impl Prefetcher for NullPrefetcher {
    fn on_access_into(
        &mut self,
        _access: &MemAccess,
        _outcome: &SystemOutcome,
        _out: &mut Vec<PrefetchRequest>,
    ) {
    }

    fn name(&self) -> &str {
        "baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;
    use crate::system::MultiCpuSystem;

    #[test]
    fn null_prefetcher_is_silent() {
        let mut sys = MultiCpuSystem::new(1, &HierarchyConfig::scaled());
        let mut p = NullPrefetcher::new();
        let a = MemAccess::read(0, 0x400, 0x1000);
        let out = sys.access(&a);
        let mut requests = Vec::new();
        p.on_access_into(&a, &out, &mut requests);
        assert!(requests.is_empty());
        assert_eq!(p.name(), "baseline");
    }
}
