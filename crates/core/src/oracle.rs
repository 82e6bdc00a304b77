//! The oracle opportunity predictor used in Figure 4.
//!
//! The oracle incurs exactly one miss per spatial region generation: upon the
//! generation's first miss it magically fetches every block the generation
//! will use.  Its miss count therefore equals the number of generations that
//! contain at least one demand miss, which bounds from below the miss rate
//! any real spatial predictor can reach at that region size.

use crate::pattern::SpatialPattern;
use crate::region::RegionConfig;
use memsim::{FastMap, PrefetchRequest, Prefetcher, SystemOutcome};
use trace::MemAccess;

/// One live generation: the region's blocks accessed so far, as a bitmap,
/// and whether any access of the generation missed.
#[derive(Debug, Clone, Copy)]
struct LiveGeneration {
    accessed: SpatialPattern,
    missed: bool,
}

/// Counts spatial region generations and the oracle's miss count at one cache
/// level.
#[derive(Debug, Clone)]
pub struct OracleOpportunity {
    region: RegionConfig,
    // Deterministic fast map; the counters only add up, and nothing ever
    // iterates the map, so its order never reaches a result.
    live: Vec<FastMap<u64, LiveGeneration>>,
    generations: u64,
    oracle_misses: u64,
    demand_misses: u64,
}

impl OracleOpportunity {
    /// Creates an opportunity tracker for `num_cpus` processors.
    ///
    /// # Panics
    ///
    /// Panics if `num_cpus` is zero or a region holds more than
    /// [`SpatialPattern::MAX_BLOCKS`] blocks.
    pub fn new(num_cpus: usize, region: RegionConfig) -> Self {
        assert!(num_cpus > 0, "need at least one cpu");
        assert!(
            region.blocks_per_region() <= SpatialPattern::MAX_BLOCKS,
            "region holds more blocks than a spatial pattern"
        );
        Self {
            region,
            live: vec![FastMap::default(); num_cpus],
            generations: 0,
            oracle_misses: 0,
            demand_misses: 0,
        }
    }

    /// Observes a demand access and whether it missed at this level.
    pub fn on_access(&mut self, cpu: u8, addr: u64, was_miss: bool) {
        let base = self.region.region_base(addr);
        let offset = self.region.region_offset(addr);
        let blocks = self.region.blocks_per_region();
        let generation = self.live[cpu as usize].entry(base).or_insert_with(|| {
            self.generations += 1;
            LiveGeneration {
                accessed: SpatialPattern::new(blocks),
                missed: false,
            }
        });
        generation.accessed.set(offset);
        if was_miss {
            self.demand_misses += 1;
            if !generation.missed {
                generation.missed = true;
                self.oracle_misses += 1;
            }
        }
    }

    /// Observes the eviction or invalidation of `block_addr`, ending the
    /// enclosing generation if that block was accessed during it.
    pub fn on_block_removed(&mut self, cpu: u8, block_addr: u64) {
        let base = self.region.region_base(block_addr);
        let offset = self.region.region_offset(block_addr);
        let live = &mut self.live[cpu as usize];
        if live.get(&base).is_some_and(|g| g.accessed.get(offset)) {
            live.remove(&base);
        }
    }

    /// Total spatial region generations observed.
    pub fn generations(&self) -> u64 {
        self.generations
    }

    /// Misses the oracle predictor would incur (one per generation that
    /// contains at least one demand miss).
    pub fn oracle_misses(&self) -> u64 {
        self.oracle_misses
    }

    /// Demand misses observed at this level (the baseline the oracle is
    /// compared against).
    pub fn demand_misses(&self) -> u64 {
        self.demand_misses
    }

    /// The fraction of demand misses the oracle eliminates.
    pub fn opportunity_fraction(&self) -> f64 {
        if self.demand_misses == 0 {
            0.0
        } else {
            1.0 - self.oracle_misses as f64 / self.demand_misses as f64
        }
    }
}

/// A passive observer that measures oracle opportunity at both cache levels
/// while a baseline simulation runs.
#[derive(Debug, Clone)]
pub struct OracleObserver {
    l1: OracleOpportunity,
    l2: OracleOpportunity,
    read_only: bool,
}

impl OracleObserver {
    /// Creates an observer for `num_cpus` processors at the given region
    /// geometry.  When `read_only` is set, only read accesses/misses are
    /// tracked (the paper reports read miss rates).
    pub fn new(num_cpus: usize, region: RegionConfig, read_only: bool) -> Self {
        Self {
            l1: OracleOpportunity::new(num_cpus, region),
            l2: OracleOpportunity::new(num_cpus, region),
            read_only,
        }
    }

    /// Opportunity tracker for the primary cache.
    pub fn l1(&self) -> &OracleOpportunity {
        &self.l1
    }

    /// Opportunity tracker for off-chip misses.
    pub fn l2(&self) -> &OracleOpportunity {
        &self.l2
    }
}

impl Prefetcher for OracleObserver {
    fn on_access(&mut self, access: &MemAccess, outcome: &SystemOutcome) -> Vec<PrefetchRequest> {
        if !(self.read_only && access.kind.is_write()) {
            self.l1
                .on_access(access.cpu, access.addr, outcome.hierarchy.l1_miss());
            self.l2
                .on_access(access.cpu, access.addr, outcome.hierarchy.offchip);
        }
        if let Some(evicted) = &outcome.hierarchy.l1_evicted {
            self.l1.on_block_removed(access.cpu, evicted.block_addr);
        }
        if let Some(evicted) = &outcome.hierarchy.l2_evicted {
            self.l2.on_block_removed(access.cpu, evicted.block_addr);
        }
        for (cpu, block) in &outcome.remote_invalidations {
            self.l1.on_block_removed(*cpu, *block);
            self.l2.on_block_removed(*cpu, *block);
        }
        Vec::new()
    }

    fn name(&self) -> &str {
        "oracle-observer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_oracle_miss_per_missing_generation() {
        let mut o = OracleOpportunity::new(1, RegionConfig::paper_default());
        let base = 0x10_0000u64;
        // Four misses within one generation.
        for i in 0..4 {
            o.on_access(0, base + i * 64, true);
        }
        assert_eq!(o.generations(), 1);
        assert_eq!(o.oracle_misses(), 1);
        assert_eq!(o.demand_misses(), 4);
        assert!((o.opportunity_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn generation_ends_on_accessed_block_removal() {
        let mut o = OracleOpportunity::new(1, RegionConfig::paper_default());
        let base = 0x10_0000u64;
        o.on_access(0, base, true);
        o.on_block_removed(0, base);
        o.on_access(0, base + 64, true);
        assert_eq!(o.generations(), 2);
        assert_eq!(o.oracle_misses(), 2);
    }

    #[test]
    fn removal_of_unaccessed_block_does_not_end_generation() {
        let mut o = OracleOpportunity::new(1, RegionConfig::paper_default());
        let base = 0x10_0000u64;
        o.on_access(0, base, true);
        o.on_block_removed(0, base + 31 * 64);
        o.on_access(0, base + 64, true);
        assert_eq!(o.generations(), 1);
    }

    #[test]
    fn upper_half_of_an_8k_region_ends_generations_by_accessed_block() {
        // 128 blocks: offsets 64..128 live in the pattern's second word.
        let mut o = OracleOpportunity::new(1, RegionConfig::new(8192, 64));
        let base = 0x10_0000u64;
        o.on_access(0, base + 100 * 64, true);
        // Neither an unaccessed upper block nor the lower-word block at the
        // same bit position ends the generation.
        o.on_block_removed(0, base + 101 * 64);
        o.on_block_removed(0, base + 36 * 64);
        o.on_access(0, base + 64, true);
        assert_eq!(o.generations(), 1);
        o.on_block_removed(0, base + 100 * 64);
        o.on_access(0, base + 64, true);
        assert_eq!(o.generations(), 2);
        assert_eq!(o.oracle_misses(), 2);
    }

    #[test]
    fn generation_without_miss_costs_nothing() {
        let mut o = OracleOpportunity::new(1, RegionConfig::paper_default());
        o.on_access(0, 0x10_0000, false);
        o.on_access(0, 0x10_0040, false);
        assert_eq!(o.generations(), 1);
        assert_eq!(o.oracle_misses(), 0);
    }

    #[test]
    fn observer_tracks_both_levels() {
        use memsim::{HierarchyConfig, MultiCpuSystem};
        use trace::{Application, GeneratorConfig};
        let mut sys = MultiCpuSystem::new(1, &HierarchyConfig::scaled());
        let mut obs = OracleObserver::new(1, RegionConfig::paper_default(), true);
        let cfg = GeneratorConfig::default().with_cpus(1);
        let mut stream = Application::DssQry1.stream(5, &cfg);
        let summary = memsim::run(&mut sys, &mut obs, &mut stream, 20_000);
        assert!(obs.l1().generations() > 0);
        assert!(obs.l1().oracle_misses() <= obs.l1().demand_misses());
        assert!(obs.l2().oracle_misses() <= obs.l2().demand_misses());
        assert_eq!(obs.l1().demand_misses(), summary.l1.read_misses);
    }
}
