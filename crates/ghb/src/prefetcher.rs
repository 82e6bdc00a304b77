//! Glue between the GHB predictor and the simulated memory system.

use crate::predictor::{GhbConfig, GhbPredictor};
use memsim::{PrefetchLevel, PrefetchRequest, Prefetcher, SystemOutcome};
use trace::MemAccess;

/// GHB PC/DC attached to every processor of a simulated system, observing the
/// L1 miss stream and prefetching into the L2.
#[derive(Debug, Clone)]
pub struct GhbPrefetcher {
    predictors: Vec<GhbPredictor>,
}

impl GhbPrefetcher {
    /// Creates one predictor per processor.
    ///
    /// # Panics
    ///
    /// Panics if `num_cpus` is zero.
    pub fn new(num_cpus: usize, config: &GhbConfig) -> Self {
        assert!(num_cpus > 0, "need at least one cpu");
        Self {
            predictors: (0..num_cpus).map(|_| GhbPredictor::new(config)).collect(),
        }
    }

    /// The predictor attached to `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn predictor(&self, cpu: u8) -> &GhbPredictor {
        &self.predictors[cpu as usize]
    }
}

impl Prefetcher for GhbPrefetcher {
    fn on_access_into(
        &mut self,
        access: &MemAccess,
        outcome: &SystemOutcome,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let cpu = access.cpu as usize;
        if cpu >= self.predictors.len() {
            return;
        }
        // GHB observes the L2 access stream, i.e. L1 misses.
        if !outcome.hierarchy.l1_miss() || access.kind.is_write() {
            return;
        }
        out.extend(
            self.predictors[cpu]
                .on_miss(access.pc, access.addr)
                .into_iter()
                .map(|addr| PrefetchRequest {
                    cpu: access.cpu,
                    addr,
                    level: PrefetchLevel::L2,
                }),
        );
    }

    fn name(&self) -> &str {
        "ghb-pc/dc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{HierarchyConfig, MultiCpuSystem, NullPrefetcher};
    use trace::{Application, GeneratorConfig};

    fn run_pair(app: Application, n: usize) -> (memsim::RunSummary, memsim::RunSummary) {
        let gen_cfg = GeneratorConfig::default().with_cpus(2);
        let hier = HierarchyConfig::scaled();

        let mut base_sys = MultiCpuSystem::new(2, &hier);
        let mut base = NullPrefetcher::new();
        let mut stream = app.stream(21, &gen_cfg);
        let baseline = memsim::run(&mut base_sys, &mut base, &mut stream, n);

        let mut ghb_sys = MultiCpuSystem::new(2, &hier);
        let mut ghb = GhbPrefetcher::new(2, &GhbConfig::paper_large());
        let mut stream = app.stream(21, &gen_cfg);
        let with_ghb = memsim::run(&mut ghb_sys, &mut ghb, &mut stream, n);
        (baseline, with_ghb)
    }

    #[test]
    fn ghb_reduces_offchip_misses_on_scientific() {
        let (baseline, with_ghb) = run_pair(Application::Ocean, 60_000);
        assert!(
            with_ghb.l2.read_misses < baseline.l2.read_misses,
            "GHB should cover regular scientific miss streams ({} vs {})",
            with_ghb.l2.read_misses,
            baseline.l2.read_misses
        );
    }

    #[test]
    fn ghb_prefetches_into_l2_not_l1() {
        let (_, with_ghb) = run_pair(Application::Ocean, 30_000);
        assert_eq!(with_ghb.l1.prefetch_fills, 0);
        assert!(with_ghb.l2.prefetch_fills > 0);
    }

    #[test]
    fn predictor_accessors() {
        let mut ghb = GhbPrefetcher::new(2, &GhbConfig::paper_small());
        let mut sys = MultiCpuSystem::new(2, &HierarchyConfig::scaled());
        let cfg = GeneratorConfig::default().with_cpus(2);
        let mut stream = Application::Sparse.stream(2, &cfg);
        let _ = memsim::run(&mut sys, &mut ghb, &mut stream, 20_000);
        assert!(ghb.predictor(0).misses_observed() > 0);
        assert_eq!(ghb.name(), "ghb-pc/dc");
    }
}
