//! Alternative training structures: decoupled sectored, logical sectored and
//! the AGT (Figures 8 and 9).
//!
//! All three variants feed the same pattern history table and stream through
//! the same prediction registers; they differ only in *how spatial patterns
//! are observed*:
//!
//! * **AGT** — the decoupled filter/accumulation tables of SMS (Section 3.1);
//! * **Logical sectored (LS)** — a sectored tag array maintained beside the
//!   conventional cache; tag conflicts between interleaved regions fragment
//!   generations but cache contents are unaffected;
//! * **Decoupled sectored (DS)** — the sectored tag array additionally
//!   constrains cache contents, so accesses that hit in the conventional
//!   cache can still miss in the sectored organization.  Those extra misses
//!   are tracked and reported as additional uncovered misses, reproducing the
//!   penalty visible in Figure 8.

use crate::index::IndexScheme;
use crate::pattern::SpatialPattern;
use crate::pht::{PatternHistoryTable, PhtCapacity};
use crate::predictor::SmsPredictor;
use crate::region::RegionConfig;
use crate::streamer::{PredictionRegisterFile, StreamerConfig};
use crate::SmsConfig;
use memsim::{
    DecoupledSectoredCache, LogicalSectoredTags, PrefetchLevel, PrefetchRequest, Prefetcher,
    SectorEviction, SystemOutcome,
};
use serde::{Deserialize, Serialize};
use trace::MemAccess;

/// Ways per set of the sectored trainers' tag arrays.
pub const SECTOR_WAYS: usize = 2;

/// Which training structure observes spatial patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrainerKind {
    /// Decoupled sectored cache (spatial footprint predictor style).
    DecoupledSectored,
    /// Logical sectored tag array (spatial pattern predictor style).
    LogicalSectored,
    /// The SMS active generation table.
    Agt,
}

impl TrainerKind {
    /// All trainers in the order Figure 8 presents them.
    pub const ALL: [TrainerKind; 3] = [
        TrainerKind::DecoupledSectored,
        TrainerKind::LogicalSectored,
        TrainerKind::Agt,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            TrainerKind::DecoupledSectored => "DS",
            TrainerKind::LogicalSectored => "LS",
            TrainerKind::Agt => "AGT",
        }
    }
}

/// Per-CPU state for the sectored trainers.
#[derive(Debug)]
enum SectoredState {
    Decoupled(DecoupledSectoredCache),
    Logical(LogicalSectoredTags),
}

#[derive(Debug)]
struct SectoredCpu {
    state: SectoredState,
    pht: PatternHistoryTable,
    registers: PredictionRegisterFile,
    extra_misses: u64,
}

/// A prefetcher whose training structure is selectable, used by the Figure 8
/// and Figure 9 experiments.
#[derive(Debug)]
pub struct TrainingPrefetcher {
    kind: TrainerKind,
    region: RegionConfig,
    index_scheme: IndexScheme,
    /// AGT variant reuses the full SMS predictor.
    agt: Vec<SmsPredictor>,
    sectored: Vec<SectoredCpu>,
    /// Reusable scratch for the streamed block addresses, so the batched
    /// driver path allocates nothing per access.  Always drained before
    /// `on_access_into` returns.
    blocks: Vec<u64>,
}

impl TrainingPrefetcher {
    /// Creates a trainer-comparison prefetcher for `num_cpus` processors.
    ///
    /// `l1_capacity_bytes` sizes the sectored tag arrays to match the cache
    /// they shadow.  `pht` bounds the pattern history table (all variants use
    /// the same bound).
    ///
    /// # Panics
    ///
    /// Panics if `num_cpus` is zero.
    pub fn new(
        num_cpus: usize,
        kind: TrainerKind,
        region: RegionConfig,
        index_scheme: IndexScheme,
        pht: PhtCapacity,
        l1_capacity_bytes: u64,
    ) -> Self {
        assert!(num_cpus > 0, "need at least one cpu");
        let streamer = StreamerConfig::paper_default();
        let mut agt = Vec::new();
        let mut sectored = Vec::new();
        match kind {
            TrainerKind::Agt => {
                let config = SmsConfig {
                    region,
                    index_scheme,
                    agt: crate::agt::AgtConfig::unbounded(),
                    pht,
                    streamer,
                };
                agt = (0..num_cpus).map(|_| SmsPredictor::new(&config)).collect();
            }
            TrainerKind::DecoupledSectored | TrainerKind::LogicalSectored => {
                for _ in 0..num_cpus {
                    let state = match kind {
                        TrainerKind::DecoupledSectored => {
                            SectoredState::Decoupled(DecoupledSectoredCache::new(
                                l1_capacity_bytes,
                                region.region_bytes,
                                region.block_bytes,
                                SECTOR_WAYS,
                                2,
                            ))
                        }
                        _ => SectoredState::Logical(LogicalSectoredTags::new(
                            l1_capacity_bytes,
                            region.region_bytes,
                            region.block_bytes,
                            SECTOR_WAYS,
                        )),
                    };
                    sectored.push(SectoredCpu {
                        state,
                        pht: PatternHistoryTable::new(pht, region.blocks_per_region()),
                        registers: PredictionRegisterFile::new(region, streamer),
                        extra_misses: 0,
                    });
                }
            }
        }
        Self {
            kind,
            region,
            index_scheme,
            agt,
            sectored,
            blocks: Vec::new(),
        }
    }

    /// The training structure in use.
    pub fn kind(&self) -> TrainerKind {
        self.kind
    }

    /// Extra misses the decoupled sectored organization would incur compared
    /// to the conventional cache (always zero for LS and AGT).
    pub fn extra_misses(&self) -> u64 {
        self.sectored.iter().map(|c| c.extra_misses).sum()
    }

    /// Patterns currently stored in the PHT(s), summed over processors.
    pub fn pht_len(&self) -> usize {
        if self.kind == TrainerKind::Agt {
            self.agt.iter().map(|p| p.pht_len()).sum()
        } else {
            self.sectored.iter().map(|c| c.pht.len()).sum()
        }
    }

    fn train_sectored(
        region: &RegionConfig,
        index_scheme: IndexScheme,
        pht: &mut PatternHistoryTable,
        eviction: SectorEviction,
    ) {
        // Filter-table semantics: single-block generations are not worth
        // predicting.
        if eviction.accessed_offsets.len() < 2 {
            return;
        }
        let pattern =
            SpatialPattern::from_offsets(region.blocks_per_region(), &eviction.accessed_offsets);
        let trigger_addr = region.block_at(eviction.region_base, eviction.trigger_offset);
        let key = index_scheme.key(eviction.trigger_pc, trigger_addr, region);
        pht.insert(key, pattern);
    }

    /// Feeds `access` to its processor's sectored trainer and appends the
    /// block addresses its prediction registers stream to `out`.
    fn sectored_on_access(
        state: &mut SectoredCpu,
        region: RegionConfig,
        index_scheme: IndexScheme,
        access: &MemAccess,
        l1_hit: bool,
        out: &mut Vec<u64>,
    ) {
        let outcome = match &mut state.state {
            SectoredState::Decoupled(ds) => ds.access(access.addr, access.pc),
            SectoredState::Logical(ls) => ls.observe(access.addr, access.pc),
        };
        // The decoupled sectored organization *is* the cache: an access that
        // hits in the conventional L1 but misses in the sectored tags is an
        // extra miss its constrained contents would cost (Figure 8).
        if matches!(state.state, SectoredState::Decoupled(_)) && l1_hit && !outcome.hit {
            state.extra_misses += 1;
        }
        if let Some(completed) = outcome.completed {
            Self::train_sectored(&region, index_scheme, &mut state.pht, completed);
        }
        if outcome.allocated_sector {
            let key = index_scheme.key(access.pc, access.addr, &region);
            if let Some(mut pattern) = state.pht.lookup(key) {
                pattern.clear(region.region_offset(access.addr));
                state
                    .registers
                    .allocate(region.region_base(access.addr), pattern);
            }
        }
        state.registers.drain_default_into(out);
    }

    fn sectored_on_removal(&mut self, cpu: usize, block_addr: u64) {
        let region = self.region;
        let index_scheme = self.index_scheme;
        let state = &mut self.sectored[cpu];
        let completed = match &mut state.state {
            SectoredState::Decoupled(ds) => ds.invalidate(block_addr),
            SectoredState::Logical(ls) => ls.invalidate(block_addr),
        };
        if let Some(completed) = completed {
            Self::train_sectored(&region, index_scheme, &mut state.pht, completed);
        }
    }
}

impl Prefetcher for TrainingPrefetcher {
    fn on_access_into(
        &mut self,
        access: &MemAccess,
        outcome: &SystemOutcome,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let cpu = access.cpu as usize;
        match self.kind {
            TrainerKind::Agt => {
                if cpu >= self.agt.len() {
                    return;
                }
                self.agt[cpu].on_access_into(access.addr, access.pc, &mut self.blocks);
                if let Some(evicted) = &outcome.hierarchy.l1_evicted {
                    self.agt[cpu].on_block_removed(evicted.block_addr);
                }
                for (inv_cpu, block) in &outcome.remote_invalidations {
                    if (*inv_cpu as usize) < self.agt.len() {
                        self.agt[*inv_cpu as usize].on_block_removed(*block);
                    }
                }
            }
            TrainerKind::DecoupledSectored | TrainerKind::LogicalSectored => {
                if cpu >= self.sectored.len() {
                    return;
                }
                Self::sectored_on_access(
                    &mut self.sectored[cpu],
                    self.region,
                    self.index_scheme,
                    access,
                    outcome.hierarchy.l1_hit,
                    &mut self.blocks,
                );
                // Sectored trainers also observe evictions/invalidations of
                // the real cache so their generations end no later than the
                // conventional cache's.
                if let Some(evicted) = &outcome.hierarchy.l1_evicted {
                    self.sectored_on_removal(cpu, evicted.block_addr);
                }
                for (inv_cpu, block) in &outcome.remote_invalidations {
                    if (*inv_cpu as usize) < self.sectored.len() {
                        self.sectored_on_removal(*inv_cpu as usize, *block);
                    }
                }
            }
        }
        out.extend(self.blocks.drain(..).map(|addr| PrefetchRequest {
            cpu: access.cpu,
            addr,
            level: PrefetchLevel::L1,
        }));
    }

    fn on_stream_eviction(&mut self, cpu: u8, block_addr: u64) {
        match self.kind {
            TrainerKind::Agt => {
                if (cpu as usize) < self.agt.len() {
                    self.agt[cpu as usize].on_block_removed(block_addr);
                }
            }
            _ => {
                if (cpu as usize) < self.sectored.len() {
                    self.sectored_on_removal(cpu as usize, block_addr);
                }
            }
        }
    }

    fn name(&self) -> &str {
        self.kind.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{HierarchyConfig, MultiCpuSystem, NullPrefetcher, RunSummary};
    use trace::{Application, GeneratorConfig};

    fn run_with(kind: TrainerKind, app: Application, n: usize) -> RunSummary {
        let gen_cfg = GeneratorConfig::default().with_cpus(2);
        let hier = HierarchyConfig::scaled();
        let mut sys = MultiCpuSystem::new(2, &hier);
        let mut trainer = TrainingPrefetcher::new(
            2,
            kind,
            RegionConfig::paper_default(),
            IndexScheme::PcOffset,
            PhtCapacity::Unbounded,
            hier.l1.capacity_bytes,
        );
        let mut stream = app.stream(7, &gen_cfg);
        memsim::run(&mut sys, &mut trainer, &mut stream, n)
    }

    fn baseline(app: Application, n: usize) -> RunSummary {
        let gen_cfg = GeneratorConfig::default().with_cpus(2);
        let hier = HierarchyConfig::scaled();
        let mut sys = MultiCpuSystem::new(2, &hier);
        let mut p = NullPrefetcher::new();
        let mut stream = app.stream(7, &gen_cfg);
        memsim::run(&mut sys, &mut p, &mut stream, n)
    }

    #[test]
    fn all_trainers_provide_some_coverage_on_dss() {
        let base = baseline(Application::DssQry1, 40_000);
        for kind in TrainerKind::ALL {
            let with = run_with(kind, Application::DssQry1, 40_000);
            assert!(
                with.l1.read_misses < base.l1.read_misses,
                "{} did not reduce misses ({} vs {})",
                kind.label(),
                with.l1.read_misses,
                base.l1.read_misses
            );
        }
    }

    #[test]
    fn agt_matches_or_beats_logical_sectored_on_oltp() {
        // Interleaved OLTP accesses fragment sectored generations; the AGT
        // should retain at least as much coverage.
        let base = baseline(Application::OltpDb2, 60_000);
        let agt = run_with(TrainerKind::Agt, Application::OltpDb2, 60_000);
        let ls = run_with(TrainerKind::LogicalSectored, Application::OltpDb2, 60_000);
        let agt_cov =
            (base.l1.read_misses as f64 - agt.l1.read_misses as f64) / base.l1.read_misses as f64;
        let ls_cov =
            (base.l1.read_misses as f64 - ls.l1.read_misses as f64) / base.l1.read_misses as f64;
        assert!(
            agt_cov >= ls_cov - 0.02,
            "AGT coverage {agt_cov:.3} should not trail LS coverage {ls_cov:.3}"
        );
    }

    #[test]
    fn trainer_labels_and_kind() {
        let t = TrainingPrefetcher::new(
            1,
            TrainerKind::LogicalSectored,
            RegionConfig::paper_default(),
            IndexScheme::PcOffset,
            PhtCapacity::Unbounded,
            64 * 1024,
        );
        assert_eq!(t.kind(), TrainerKind::LogicalSectored);
        assert_eq!(t.name(), "LS");
        assert_eq!(TrainerKind::Agt.label(), "AGT");
        assert_eq!(t.extra_misses(), 0);
    }
}
