//! Spatial region generation tracking and access-density measurement.
//!
//! Figure 5 of the paper breaks down L1 and L2 read misses by the *density*
//! of the generation they occur in — the number of distinct blocks of the
//! 2 kB region that miss during the generation.  [`GenerationTracker`]
//! follows live generations exactly as the AGT does (first access opens a
//! generation, eviction/invalidation of an accessed block closes it), and
//! [`DensityHistogram`] accumulates, per density bin, how many misses came
//! from generations of that density.

use crate::pattern::SpatialPattern;
use crate::region::RegionConfig;
use memsim::{FastMap, PrefetchRequest, Prefetcher, SystemOutcome};
use serde::{Deserialize, Serialize};
use trace::MemAccess;

/// The density bins used by Figure 5 (for 32-block regions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DensityBin {
    /// Inclusive lower bound on blocks missed in the generation.
    pub lo: u32,
    /// Inclusive upper bound.
    pub hi: u32,
}

impl DensityBin {
    /// The paper's seven bins: 1, 2–3, 4–7, 8–15, 16–23, 24–31, 32 blocks.
    pub const PAPER_BINS: [DensityBin; 7] = [
        DensityBin { lo: 1, hi: 1 },
        DensityBin { lo: 2, hi: 3 },
        DensityBin { lo: 4, hi: 7 },
        DensityBin { lo: 8, hi: 15 },
        DensityBin { lo: 16, hi: 23 },
        DensityBin { lo: 24, hi: 31 },
        DensityBin {
            lo: 32,
            hi: u32::MAX,
        },
    ];

    /// Human-readable label ("4-7 Blocks").
    pub fn label(&self) -> String {
        if self.hi == u32::MAX {
            format!("{}+ Blocks", self.lo)
        } else if self.lo == self.hi {
            format!("{} Block{}", self.lo, if self.lo == 1 { "" } else { "s" })
        } else {
            format!("{}-{} Blocks", self.lo, self.hi)
        }
    }

    /// Whether `density` falls in this bin.
    pub fn contains(&self, density: u32) -> bool {
        density >= self.lo && density <= self.hi
    }
}

/// Misses grouped by the density of the generation they belong to.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DensityHistogram {
    /// Misses attributed to each of [`DensityBin::PAPER_BINS`].
    pub misses_per_bin: [u64; 7],
}

impl DensityHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed generation with `missed_blocks` distinct missing
    /// blocks (generations without misses are ignored).
    pub fn record_generation(&mut self, missed_blocks: u32) {
        if missed_blocks == 0 {
            return;
        }
        for (i, bin) in DensityBin::PAPER_BINS.iter().enumerate() {
            if bin.contains(missed_blocks) {
                self.misses_per_bin[i] += u64::from(missed_blocks);
                return;
            }
        }
    }

    /// Total misses accounted for.
    pub fn total_misses(&self) -> u64 {
        self.misses_per_bin.iter().sum()
    }

    /// Fraction of misses in each bin (zeros when empty).
    pub fn fractions(&self) -> [f64; 7] {
        let total = self.total_misses();
        let mut out = [0.0; 7];
        if total == 0 {
            return out;
        }
        for (i, &m) in self.misses_per_bin.iter().enumerate() {
            out[i] = m as f64 / total as f64;
        }
        out
    }
}

/// One live generation's footprint as two spatial-pattern bitmaps over the
/// region's blocks.  Distinct-block counting is a popcount (`pattern.count`)
/// instead of a per-generation pair of hash sets, and membership tests are
/// single bit probes.
#[derive(Debug, Clone, Copy)]
struct LiveGeneration {
    accessed: SpatialPattern,
    missed: SpatialPattern,
}

/// Tracks live spatial region generations at one cache level and feeds a
/// [`DensityHistogram`].
#[derive(Debug, Clone)]
pub struct GenerationTracker {
    region: RegionConfig,
    // Deterministic fast map; histogram accumulation is additive, so
    // generation drain order never affects the result.
    live: Vec<FastMap<u64, LiveGeneration>>,
    histogram: DensityHistogram,
}

impl GenerationTracker {
    /// Creates a tracker for `num_cpus` processors.
    ///
    /// # Panics
    ///
    /// Panics if `num_cpus` is zero.
    pub fn new(num_cpus: usize, region: RegionConfig) -> Self {
        assert!(num_cpus > 0, "need at least one cpu");
        Self {
            region,
            live: vec![FastMap::default(); num_cpus],
            histogram: DensityHistogram::new(),
        }
    }

    /// Observes a demand access and whether it missed at this level.
    pub fn on_access(&mut self, cpu: u8, addr: u64, was_miss: bool) {
        let base = self.region.region_base(addr);
        let offset = self.region.region_offset(addr);
        let blocks = self.region.blocks_per_region();
        let generation = self.live[cpu as usize]
            .entry(base)
            .or_insert_with(|| LiveGeneration {
                accessed: SpatialPattern::new(blocks),
                missed: SpatialPattern::new(blocks),
            });
        generation.accessed.set(offset);
        if was_miss {
            generation.missed.set(offset);
        }
    }

    /// Observes a block eviction/invalidation, possibly closing a generation.
    pub fn on_block_removed(&mut self, cpu: u8, block_addr: u64) {
        let base = self.region.region_base(block_addr);
        let offset = self.region.region_offset(block_addr);
        let live = &mut self.live[cpu as usize];
        let ends = live.get(&base).is_some_and(|g| g.accessed.get(offset));
        if ends {
            let generation = live.remove(&base).expect("generation just found");
            self.histogram.record_generation(generation.missed.count());
        }
    }

    /// Closes all live generations (end of trace).
    pub fn flush(&mut self) {
        for live in &mut self.live {
            for (_, generation) in live.drain() {
                self.histogram.record_generation(generation.missed.count());
            }
        }
    }

    /// The histogram accumulated so far (call [`flush`](Self::flush) first to
    /// include still-open generations).
    pub fn histogram(&self) -> &DensityHistogram {
        &self.histogram
    }
}

/// A passive observer measuring access density at both cache levels.
#[derive(Debug, Clone)]
pub struct DensityObserver {
    l1: GenerationTracker,
    l2: GenerationTracker,
}

impl DensityObserver {
    /// Creates an observer for `num_cpus` processors.
    pub fn new(num_cpus: usize, region: RegionConfig) -> Self {
        Self {
            l1: GenerationTracker::new(num_cpus, region),
            l2: GenerationTracker::new(num_cpus, region),
        }
    }

    /// Closes all live generations and returns the two histograms (L1, L2).
    pub fn finish(mut self) -> (DensityHistogram, DensityHistogram) {
        self.l1.flush();
        self.l2.flush();
        (self.l1.histogram().clone(), self.l2.histogram().clone())
    }
}

impl Prefetcher for DensityObserver {
    fn on_access_into(
        &mut self,
        access: &MemAccess,
        outcome: &SystemOutcome,
        _out: &mut Vec<PrefetchRequest>,
    ) {
        if access.kind.is_read() {
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
    }

    fn name(&self) -> &str {
        "density-observer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_cover_expected_ranges() {
        let bins = DensityBin::PAPER_BINS;
        assert!(bins[0].contains(1) && !bins[0].contains(2));
        assert!(bins[2].contains(4) && bins[2].contains(7));
        assert!(bins[6].contains(32) && bins[6].contains(100));
        assert_eq!(bins[1].label(), "2-3 Blocks");
        assert_eq!(bins[0].label(), "1 Block");
        assert_eq!(bins[6].label(), "32+ Blocks");
    }

    #[test]
    fn histogram_weights_by_miss_count() {
        let mut h = DensityHistogram::new();
        h.record_generation(1); // 1 miss in bin 0
        h.record_generation(4); // 4 misses in bin 2
        h.record_generation(0); // ignored
        assert_eq!(h.total_misses(), 5);
        let f = h.fractions();
        assert!((f[0] - 0.2).abs() < 1e-12);
        assert!((f[2] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn tracker_counts_distinct_missing_blocks() {
        let mut t = GenerationTracker::new(1, RegionConfig::paper_default());
        let base = 0x10_0000u64;
        t.on_access(0, base, true);
        t.on_access(0, base + 64, true);
        t.on_access(0, base + 64, true); // same block missing again: still 2 distinct
        t.on_access(0, base + 128, false);
        t.on_block_removed(0, base);
        let h = t.histogram();
        assert_eq!(h.total_misses(), 2);
        assert_eq!(h.misses_per_bin[1], 2); // density 2 => bin "2-3"
    }

    #[test]
    fn flush_closes_open_generations() {
        let mut t = GenerationTracker::new(1, RegionConfig::paper_default());
        t.on_access(0, 0x10_0000, true);
        assert_eq!(t.histogram().total_misses(), 0);
        t.flush();
        assert_eq!(t.histogram().total_misses(), 1);
    }

    #[test]
    fn observer_produces_histograms_from_simulation() {
        use memsim::{HierarchyConfig, MultiCpuSystem};
        use trace::{Application, GeneratorConfig};
        let mut sys = MultiCpuSystem::new(1, &HierarchyConfig::scaled());
        let mut obs = DensityObserver::new(1, RegionConfig::paper_default());
        let cfg = GeneratorConfig::default().with_cpus(1);
        let mut stream = Application::OltpDb2.stream(8, &cfg);
        let _ = memsim::run(&mut sys, &mut obs, &mut stream, 30_000);
        let (l1, l2) = obs.finish();
        assert!(l1.total_misses() > 0);
        assert!(l2.total_misses() > 0);
        assert!(l2.total_misses() <= l1.total_misses());
    }
}
