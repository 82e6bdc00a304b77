//! Access and miss counters for one cache.

use serde::{Deserialize, Serialize};

/// Counters accumulated by a cache or hierarchy level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Demand accesses observed (reads + writes).
    pub accesses: u64,
    /// Demand read accesses.
    pub reads: u64,
    /// Demand write accesses.
    pub writes: u64,
    /// Demand misses (reads + writes).
    pub misses: u64,
    /// Demand read misses.
    pub read_misses: u64,
    /// Demand write misses.
    pub write_misses: u64,
    /// Demand hits on blocks that were filled by a prefetch and had not yet
    /// been used (i.e. misses eliminated by prefetching).
    pub prefetch_hits: u64,
    /// Prefetched blocks evicted or invalidated before any demand use
    /// (overpredictions).
    pub prefetch_unused_evictions: u64,
    /// Prefetch fills issued to this cache.
    pub prefetch_fills: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Lines invalidated by coherence actions.
    pub invalidations: u64,
}

impl CacheStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another set of counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.reads += other.reads;
        self.writes += other.writes;
        self.misses += other.misses;
        self.read_misses += other.read_misses;
        self.write_misses += other.write_misses;
        self.prefetch_hits += other.prefetch_hits;
        self.prefetch_unused_evictions += other.prefetch_unused_evictions;
        self.prefetch_fills += other.prefetch_fills;
        self.writebacks += other.writebacks;
        self.invalidations += other.invalidations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = CacheStats {
            accesses: 1,
            reads: 1,
            misses: 1,
            read_misses: 1,
            prefetch_hits: 2,
            ..Default::default()
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.accesses, 2);
        assert_eq!(a.prefetch_hits, 4);
    }
}
