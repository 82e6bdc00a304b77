//! The per-processor SMS predictor: AGT + PHT + prediction registers.

use crate::agt::{ActiveGenerationTable, AgtConfig, TrainedPattern};
use crate::index::IndexScheme;
use crate::pht::{PatternHistoryTable, PhtCapacity};
use crate::region::RegionConfig;
use crate::streamer::{PredictionRegisterFile, StreamerConfig};
use serde::{Deserialize, Serialize};
use trace::Pc;

/// Complete configuration of one SMS predictor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SmsConfig {
    /// Spatial region geometry (default: 2 kB regions of 64 B blocks).
    pub region: RegionConfig,
    /// Prediction-index scheme (default: PC+offset).
    pub index_scheme: IndexScheme,
    /// Active generation table sizing (default: 32-entry filter, 64-entry
    /// accumulation table).
    pub agt: AgtConfig,
    /// Pattern history table capacity (default: 16 k entries, 16-way).
    pub pht: PhtCapacity,
    /// Prediction-register file and streaming rate.
    pub streamer: StreamerConfig,
}

impl SmsConfig {
    /// The practical configuration evaluated in the paper (Figure 11).
    pub fn paper_default() -> Self {
        Self {
            region: RegionConfig::paper_default(),
            index_scheme: IndexScheme::PcOffset,
            agt: AgtConfig::paper_default(),
            pht: PhtCapacity::paper_default(),
            streamer: StreamerConfig::paper_default(),
        }
    }

    /// An idealized configuration for limit studies: unbounded AGT and PHT.
    pub fn idealized(index_scheme: IndexScheme, region: RegionConfig) -> Self {
        Self {
            region,
            index_scheme,
            agt: AgtConfig::unbounded(),
            pht: PhtCapacity::Unbounded,
            streamer: StreamerConfig::paper_default(),
        }
    }

    /// Returns a copy with a different PHT capacity.
    pub fn with_pht(mut self, pht: PhtCapacity) -> Self {
        self.pht = pht;
        self
    }
}

impl Default for SmsConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Counters exposed by one predictor instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorStats {
    /// Trigger accesses observed (new spatial region generations).
    pub triggers: u64,
    /// Trigger accesses that hit in the PHT and produced a prediction.
    pub pht_hits: u64,
    /// Patterns written into the PHT (generations trained).
    pub patterns_trained: u64,
    /// Stream requests issued.
    pub stream_requests: u64,
}

/// One processor's SMS predictor.
#[derive(Debug, Clone)]
pub struct SmsPredictor {
    config: SmsConfig,
    agt: ActiveGenerationTable,
    pht: PatternHistoryTable,
    registers: PredictionRegisterFile,
    stats: PredictorStats,
}

impl SmsPredictor {
    /// Creates a predictor with the given configuration.
    pub fn new(config: &SmsConfig) -> Self {
        Self {
            config: *config,
            agt: ActiveGenerationTable::new(config.region, config.agt),
            pht: PatternHistoryTable::new(config.pht, config.region.blocks_per_region()),
            registers: PredictionRegisterFile::new(config.region, config.streamer),
            stats: PredictorStats::default(),
        }
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> &SmsConfig {
        &self.config
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &PredictorStats {
        &self.stats
    }

    /// Number of patterns currently stored in the PHT.
    pub fn pht_len(&self) -> usize {
        self.pht.len()
    }

    /// Observes one demand L1 access and returns the block addresses SMS
    /// wants to stream into the primary cache.
    pub fn on_access(&mut self, addr: u64, pc: Pc) -> Vec<u64> {
        let mut requests = Vec::new();
        self.on_access_into(addr, pc, &mut requests);
        requests
    }

    /// Allocation-free variant of [`on_access`](Self::on_access): appends
    /// the block addresses to stream to `out` (in the same order) instead of
    /// returning a fresh vector.  This is the path the driver's batched hot
    /// loop takes through [`SmsPrefetcher`](crate::SmsPrefetcher).
    pub fn on_access_into(&mut self, addr: u64, pc: Pc, out: &mut Vec<u64>) {
        let outcome = self.agt.record_access(addr, pc);
        if let Some(spilled) = outcome.spilled {
            self.train(spilled);
        }
        if outcome.is_trigger {
            self.stats.triggers += 1;
            let key = self.config.index_scheme.key(pc, addr, &self.config.region);
            if let Some(mut pattern) = self.pht.lookup(key) {
                self.stats.pht_hits += 1;
                // The trigger block is being demand-fetched already.
                pattern.clear(self.config.region.region_offset(addr));
                self.registers
                    .allocate(self.config.region.region_base(addr), pattern);
            }
        }
        let issued_before = out.len();
        self.registers.drain_default_into(out);
        self.stats.stream_requests += (out.len() - issued_before) as u64;
    }

    /// Observes the eviction or invalidation of `block_addr` from the primary
    /// cache, ending the region's generation and training the PHT.
    pub fn on_block_removed(&mut self, block_addr: u64) {
        if let Some(trained) = self.agt.end_generation(block_addr) {
            self.train(trained);
        }
    }

    /// Flushes all live generations into the PHT (end of trace).
    pub fn flush(&mut self) {
        for trained in self.agt.drain() {
            self.train(trained);
        }
    }

    fn train(&mut self, trained: TrainedPattern) {
        debug_assert!(
            trained.pattern.count() >= 2,
            "filter-only generations never train"
        );
        let trigger_addr = self
            .config
            .region
            .block_at(trained.region_base, trained.trigger_offset);
        let key =
            self.config
                .index_scheme
                .key(trained.trigger_pc, trigger_addr, &self.config.region);
        self.pht.insert(key, trained.pattern);
        self.stats.patterns_trained += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor() -> SmsPredictor {
        SmsPredictor::new(&SmsConfig::idealized(
            IndexScheme::PcOffset,
            RegionConfig::paper_default(),
        ))
    }

    /// Walks the predictor through one full generation of the given offsets
    /// at `base`, then ends it by evicting the first block.
    fn run_generation(p: &mut SmsPredictor, base: u64, pc: u64, offsets: &[u32]) -> Vec<u64> {
        let mut streamed = Vec::new();
        for &o in offsets {
            streamed.extend(p.on_access(base + u64::from(o) * 64, pc));
        }
        p.on_block_removed(base + u64::from(offsets[0]) * 64);
        streamed
    }

    #[test]
    fn learned_pattern_predicts_new_region() {
        let mut p = predictor();
        let pc = 0x4000;
        // Train on region A.
        let streamed = run_generation(&mut p, 0x10_0000, pc, &[0, 3, 7]);
        assert!(streamed.is_empty(), "nothing to stream while training");
        assert_eq!(p.stats().patterns_trained, 1);
        // A trigger with the same PC and offset in a brand-new region
        // predicts the remaining blocks.
        let reqs = p.on_access(0x20_0000, pc);
        assert_eq!(p.stats().pht_hits, 1);
        let expected: Vec<u64> = vec![0x20_0000 + 3 * 64, 0x20_0000 + 7 * 64];
        assert_eq!(reqs, expected);
    }

    #[test]
    fn different_trigger_offset_does_not_predict_with_pc_offset() {
        let mut p = predictor();
        let pc = 0x4000;
        run_generation(&mut p, 0x10_0000, pc, &[0, 3, 7]);
        // Same PC but trigger lands on offset 5: different key.
        let reqs = p.on_access(0x20_0000 + 5 * 64, pc);
        assert!(reqs.is_empty());
    }

    #[test]
    fn address_indexing_predicts_only_revisited_regions() {
        let mut p = SmsPredictor::new(&SmsConfig::idealized(
            IndexScheme::Address,
            RegionConfig::paper_default(),
        ));
        let pc = 0x4000;
        run_generation(&mut p, 0x10_0000, pc, &[0, 3]);
        // New region: no prediction.
        assert!(p.on_access(0x20_0000, pc).is_empty());
        p.on_block_removed(0x20_0000);
        // Revisit the trained region: prediction fires.
        let reqs = p.on_access(0x10_0000, 0x9999);
        assert_eq!(reqs, vec![0x10_0000 + 3 * 64]);
    }

    #[test]
    fn trigger_block_not_streamed() {
        let mut p = predictor();
        let pc = 0x4000;
        run_generation(&mut p, 0x10_0000, pc, &[2, 9]);
        let reqs = p.on_access(0x20_0000 + 2 * 64, pc);
        assert_eq!(reqs, vec![0x20_0000 + 9 * 64]);
        assert!(!reqs.contains(&(0x20_0000 + 2 * 64)));
    }

    #[test]
    fn flush_trains_live_generations() {
        let mut p = predictor();
        p.on_access(0x10_0000, 0x4000);
        p.on_access(0x10_0040, 0x4000);
        assert_eq!(p.stats().patterns_trained, 0);
        p.flush();
        assert_eq!(p.stats().patterns_trained, 1);
        assert_eq!(p.pht_len(), 1);
    }

    #[test]
    fn stats_track_stream_requests() {
        let mut p = predictor();
        let pc = 0x4000;
        run_generation(&mut p, 0x10_0000, pc, &[0, 1, 2, 3]);
        let reqs = p.on_access(0x20_0000, pc);
        assert_eq!(p.stats().stream_requests, reqs.len() as u64);
        assert_eq!(p.stats().triggers, 2);
    }

    #[test]
    fn bounded_pht_limits_storage() {
        let cfg = SmsConfig {
            pht: PhtCapacity::Bounded {
                entries: 2,
                associativity: 2,
            },
            ..SmsConfig::idealized(IndexScheme::PcOffset, RegionConfig::paper_default())
        };
        let mut p = SmsPredictor::new(&cfg);
        for i in 0..8u64 {
            run_generation(&mut p, 0x10_0000 + i * 0x1_0000, 0x4000 + i * 4, &[0, 1]);
        }
        assert!(p.pht_len() <= 2);
    }
}
