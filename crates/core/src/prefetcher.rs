//! Glue between the SMS predictor and the simulated memory system.
//!
//! [`SmsPrefetcher`] holds one [`SmsPredictor`] per processor and implements
//! the [`memsim::Prefetcher`] interface: it feeds every demand access to the
//! issuing processor's AGT, terminates generations on L1 evictions and
//! coherence invalidations, and turns prediction-register output into
//! L1 stream-fill requests.

use crate::predictor::{PredictorStats, SmsConfig, SmsPredictor};
use memsim::{PrefetchLevel, PrefetchRequest, Prefetcher, SystemOutcome};
use trace::MemAccess;

/// SMS attached to every processor of a simulated system.
#[derive(Debug, Clone)]
pub struct SmsPrefetcher {
    predictors: Vec<SmsPredictor>,
    /// Reusable scratch for the predictor's streamed block addresses, so the
    /// batched driver path allocates nothing per access.  Always drained
    /// before `on_access_into` returns — never carries state between
    /// accesses.
    blocks: Vec<u64>,
}

impl SmsPrefetcher {
    /// Creates one predictor per processor, all with the same configuration.
    ///
    /// # Panics
    ///
    /// Panics if `num_cpus` is zero.
    pub fn new(num_cpus: usize, config: &SmsConfig) -> Self {
        assert!(num_cpus > 0, "need at least one cpu");
        Self {
            predictors: (0..num_cpus).map(|_| SmsPredictor::new(config)).collect(),
            blocks: Vec::new(),
        }
    }

    /// The predictor attached to `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn predictor(&self, cpu: u8) -> &SmsPredictor {
        &self.predictors[cpu as usize]
    }

    /// Sums the per-processor predictor counters.
    pub fn total_stats(&self) -> PredictorStats {
        let mut total = PredictorStats::default();
        for p in &self.predictors {
            let s = p.stats();
            total.triggers += s.triggers;
            total.pht_hits += s.pht_hits;
            total.patterns_trained += s.patterns_trained;
            total.stream_requests += s.stream_requests;
        }
        total
    }
}

impl Prefetcher for SmsPrefetcher {
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
        // The AGT observes every L1 access (hit or miss).  The reusable
        // scratch buffer keeps this path allocation-free.
        self.blocks.clear();
        self.predictors[cpu].on_access_into(access.addr, access.pc, &mut self.blocks);

        // The demand fill may have displaced an L1 line: that eviction ends
        // the victim region's generation.
        if let Some(evicted) = &outcome.hierarchy.l1_evicted {
            self.predictors[cpu].on_block_removed(evicted.block_addr);
        }
        // Coherence invalidations end generations on the *remote* processors.
        for (inv_cpu, block_addr) in &outcome.remote_invalidations {
            if (*inv_cpu as usize) < self.predictors.len() {
                self.predictors[*inv_cpu as usize].on_block_removed(*block_addr);
            }
        }

        out.extend(self.blocks.drain(..).map(|addr| PrefetchRequest {
            cpu: access.cpu,
            addr,
            level: PrefetchLevel::L1,
        }));
    }

    fn on_stream_eviction(&mut self, cpu: u8, block_addr: u64) {
        if (cpu as usize) < self.predictors.len() {
            self.predictors[cpu as usize].on_block_removed(block_addr);
        }
    }

    fn name(&self) -> &str {
        "sms"
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
        let mut stream = app.stream(42, &gen_cfg);
        let baseline = memsim::run(&mut base_sys, &mut base, &mut stream, n);

        let mut sms_sys = MultiCpuSystem::new(2, &hier);
        let mut sms = SmsPrefetcher::new(2, &SmsConfig::default());
        let mut stream = app.stream(42, &gen_cfg);
        let with_sms = memsim::run(&mut sms_sys, &mut sms, &mut stream, n);
        (baseline, with_sms)
    }

    #[test]
    fn sms_reduces_misses_on_dss_scans() {
        let (baseline, with_sms) = run_pair(Application::DssQry1, 60_000);
        assert!(
            with_sms.l1.read_misses < baseline.l1.read_misses,
            "SMS should eliminate L1 read misses on scan-dominated DSS \
             (baseline {}, sms {})",
            baseline.l1.read_misses,
            with_sms.l1.read_misses
        );
        let covered = baseline
            .l1
            .read_misses
            .saturating_sub(with_sms.l1.read_misses) as f64
            / baseline.l1.read_misses as f64;
        assert!(covered > 0.3, "DSS scan coverage too low: {covered:.2}");
    }

    #[test]
    fn sms_reduces_misses_on_scientific() {
        let (baseline, with_sms) = run_pair(Application::Sparse, 60_000);
        let covered = baseline
            .l1
            .read_misses
            .saturating_sub(with_sms.l1.read_misses) as f64
            / baseline.l1.read_misses.max(1) as f64;
        assert!(covered > 0.4, "sparse coverage too low: {covered:.2}");
    }

    #[test]
    fn sms_helps_oltp_without_exploding_traffic() {
        let (baseline, with_sms) = run_pair(Application::OltpDb2, 60_000);
        assert!(with_sms.l1.read_misses <= baseline.l1.read_misses);
        // Overpredictions exist but stay bounded relative to baseline misses.
        let over =
            with_sms.l1.prefetch_unused_evictions as f64 / baseline.l1.read_misses.max(1) as f64;
        assert!(over < 1.5, "overprediction ratio too high: {over:.2}");
    }

    #[test]
    fn predictor_accessor_and_stats() {
        let mut sms = SmsPrefetcher::new(2, &SmsConfig::default());
        let mut sys = MultiCpuSystem::new(2, &HierarchyConfig::scaled());
        let gen_cfg = GeneratorConfig::default().with_cpus(2);
        let mut stream = Application::WebApache.stream(3, &gen_cfg);
        let _ = memsim::run(&mut sys, &mut sms, &mut stream, 20_000);
        let totals = sms.total_stats();
        assert!(totals.triggers > 0);
        assert!(totals.patterns_trained > 0);
        assert!(sms.predictor(0).stats().triggers > 0);
        assert_eq!(sms.name(), "sms");
    }
}
