//! The timing model proper.

use crate::breakdown::TimeBreakdown;
use crate::config::TimingConfig;
use memsim::{HierarchyConfig, MultiCpuSystem, PrefetchLevel, Prefetcher, RunSummary};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use trace::MemAccess;

/// Result of evaluating one system configuration on a trace.
///
/// The underlying cache-simulation [`RunSummary`] is returned alongside this
/// by [`TimingModel::evaluate`] rather than embedded, so callers that carry
/// both (such as the engine's job results) hold exactly one copy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingResult {
    /// Estimated total cycles summed over all processors.
    pub total_cycles: f64,
    /// Cycle breakdown by category.
    pub breakdown: TimeBreakdown,
    /// Cycles accumulated in each trace segment (for paired sampling).
    pub segment_cycles: Vec<f64>,
    /// Demand accesses simulated (the unit of completed work).
    pub accesses: u64,
}

/// Per-CPU dynamic state maintained while walking the trace.
#[derive(Debug, Clone)]
struct CpuTimingState {
    /// Access indices (per-CPU) of recent read misses, used to estimate MLP.
    recent_misses: VecDeque<u64>,
    /// Per-CPU access counter.
    accesses: u64,
    /// Outstanding store-buffer drain work, in cycles.
    store_backlog: f64,
}

impl CpuTimingState {
    fn new() -> Self {
        Self {
            recent_misses: VecDeque::new(),
            accesses: 0,
            store_backlog: 0.0,
        }
    }
}

/// The per-access cycle accounting of the timing model, separated from the
/// cache simulation it observes.
///
/// [`TimingModel::evaluate`], the per-access reference walk, drives an
/// instance inline; the engine's job loop drives one from each segment's
/// outcome tape when it replays the segment.  Both paths call
/// [`observe`](Self::observe) with identical inputs in identical order, and
/// every floating-point operation lives here, so the accumulated cycles are
/// bit-identical regardless of which path ran.  (The loop's segments and
/// the paired-sampling segments counted here are unrelated: the latter
/// split the run's accesses into `segments` equal parts.)
#[derive(Debug, Clone)]
pub struct TimingAccounting {
    config: TimingConfig,
    cpu_state: Vec<CpuTimingState>,
    breakdown: TimeBreakdown,
    segment_cycles: Vec<f64>,
    segment_len: usize,
    accesses_done: u64,
}

impl TimingAccounting {
    /// Creates accounting state for `num_cpus` processors over a planned run
    /// of `num_accesses` accesses split into `segments` paired-sampling
    /// segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    pub fn new(
        num_cpus: usize,
        config: TimingConfig,
        num_accesses: usize,
        segments: usize,
    ) -> Self {
        assert!(segments > 0, "need at least one segment");
        Self {
            config,
            cpu_state: (0..num_cpus).map(|_| CpuTimingState::new()).collect(),
            breakdown: TimeBreakdown::new(),
            segment_cycles: vec![0.0; segments],
            segment_len: (num_accesses / segments).max(1),
            accesses_done: 0,
        }
    }

    /// Demand accesses accounted so far.
    pub fn accesses_done(&self) -> u64 {
        self.accesses_done
    }

    /// Accounts one (non-skipped) demand access, given the outcome bits the
    /// cache simulation produced for it.
    pub fn observe(&mut self, access: &MemAccess, l1_miss: bool, offchip: bool) {
        let cfg = &self.config;
        let state = &mut self.cpu_state[access.cpu as usize];
        state.accesses += 1;
        let mut cycles_this_access = cfg.busy_cycles_per_access + cfg.other_stall_per_access;
        self.breakdown.user_busy += cfg.busy_cycles_per_access * (1.0 - cfg.system_busy_fraction);
        self.breakdown.system_busy += cfg.busy_cycles_per_access * cfg.system_busy_fraction;
        self.breakdown.other += cfg.other_stall_per_access;

        if access.kind.is_read() {
            if l1_miss {
                // Estimate the MLP available to overlap this miss: the
                // number of read misses (including this one) issued by
                // this CPU within the out-of-order window.
                let window_start = state
                    .accesses
                    .saturating_sub(cfg.overlap_window_accesses as u64);
                while state
                    .recent_misses
                    .front()
                    .is_some_and(|&idx| idx < window_start)
                {
                    state.recent_misses.pop_front();
                }
                state.recent_misses.push_back(state.accesses);
                let mlp = state.recent_misses.len().clamp(1, cfg.max_mlp) as f64;
                let (latency, category) = if offchip {
                    (cfg.memory_cycles, StallKind::OffChip)
                } else {
                    (cfg.l2_hit_cycles, StallKind::OnChip)
                };
                let stall = latency / mlp;
                cycles_this_access += stall;
                match category {
                    StallKind::OffChip => self.breakdown.offchip_read += stall,
                    StallKind::OnChip => self.breakdown.onchip_read += stall,
                }
            }
        } else {
            // Stores retire into the store buffer; those that miss must
            // eventually drain to the memory system.
            if l1_miss {
                state.store_backlog += cfg.store_drain_cycles / cfg.store_mlp as f64;
            }
        }

        // The store buffer drains while the CPU makes forward progress.
        state.store_backlog = (state.store_backlog - cycles_this_access).max(0.0);
        let capacity_cycles =
            cfg.store_buffer_entries as f64 * cfg.store_drain_cycles / cfg.store_mlp as f64;
        if state.store_backlog > capacity_cycles {
            let stall = state.store_backlog - capacity_cycles;
            self.breakdown.store_buffer += stall;
            cycles_this_access += stall;
            state.store_backlog = capacity_cycles;
        }

        let segment =
            ((self.accesses_done as usize) / self.segment_len).min(self.segment_cycles.len() - 1);
        self.segment_cycles[segment] += cycles_this_access;
        self.accesses_done += 1;
    }

    /// Consumes the accounting into the run's [`TimingResult`].
    pub fn finish(self) -> TimingResult {
        TimingResult {
            total_cycles: self.breakdown.total(),
            breakdown: self.breakdown,
            segment_cycles: self.segment_cycles,
            accesses: self.accesses_done,
        }
    }
}

/// A reusable description of the system to evaluate (hierarchy + timing
/// parameters); each call to [`evaluate`](TimingModel::evaluate) builds a
/// fresh cache simulation so runs are independent.
#[derive(Debug, Clone, Copy)]
pub struct TimingModel {
    hierarchy: HierarchyConfig,
    num_cpus: usize,
    config: TimingConfig,
}

impl TimingModel {
    /// Creates a model for `num_cpus` processors with the given hierarchy and
    /// timing parameters.
    ///
    /// # Panics
    ///
    /// Panics if `num_cpus` is zero.
    pub fn new(hierarchy: HierarchyConfig, num_cpus: usize, config: TimingConfig) -> Self {
        assert!(num_cpus > 0, "need at least one cpu");
        Self {
            hierarchy,
            num_cpus,
            config,
        }
    }

    /// The timing parameters in use.
    pub fn config(&self) -> &TimingConfig {
        &self.config
    }

    /// Evaluates `num_accesses` accesses from `stream` with `prefetcher`
    /// attached, splitting the run into `segments` equal segments for paired
    /// sampling.  Returns the timing result together with the underlying
    /// cache-simulation summary.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    pub fn evaluate<S>(
        &self,
        prefetcher: &mut dyn Prefetcher,
        stream: &mut S,
        num_accesses: usize,
        segments: usize,
    ) -> (TimingResult, RunSummary)
    where
        S: Iterator<Item = MemAccess> + ?Sized,
    {
        let mut system = MultiCpuSystem::new(self.num_cpus, &self.hierarchy);
        let mut accounting =
            TimingAccounting::new(self.num_cpus, self.config, num_accesses, segments);
        let mut skipped_accesses: u64 = 0;
        let mut prefetch_requests: u64 = 0;
        // One request buffer for the whole walk (same batched hot path as
        // `memsim::run`): drained in order after every access.
        let mut batch = Vec::new();

        for access in stream.take(num_accesses) {
            if (access.cpu as usize) >= self.num_cpus {
                skipped_accesses += 1;
                continue;
            }
            let outcome = system.access(&access);
            prefetcher.on_access_into(&access, &outcome, &mut batch);
            prefetch_requests += batch.len() as u64;
            for req in batch.drain(..) {
                if (req.cpu as usize) >= self.num_cpus {
                    continue;
                }
                match req.level {
                    PrefetchLevel::L1 => {
                        if let Some(victim) = system.cpu_mut(req.cpu).stream_fill(req.addr) {
                            prefetcher.on_stream_eviction(req.cpu, victim.block_addr);
                        }
                    }
                    PrefetchLevel::L2 => {
                        system.cpu_mut(req.cpu).l2_prefetch_fill(req.addr);
                    }
                }
            }
            accounting.observe(
                &access,
                outcome.hierarchy.l1_miss(),
                outcome.hierarchy.offchip,
            );
        }

        let summary = RunSummary {
            accesses: accounting.accesses_done(),
            skipped_accesses,
            l1: system.l1_stats_total(),
            l2: system.l2_stats_total(),
            l1_breakdown: *system.l1_breakdown(),
            l2_breakdown: *system.l2_breakdown(),
            prefetch_requests,
        };
        (accounting.finish(), summary)
    }
}

#[derive(Debug, Clone, Copy)]
enum StallKind {
    OffChip,
    OnChip,
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::NullPrefetcher;
    use sms::{SmsConfig, SmsPrefetcher};
    use trace::{Application, GeneratorConfig};

    fn model(cpus: usize) -> TimingModel {
        TimingModel::new(HierarchyConfig::scaled(), cpus, TimingConfig::default())
    }

    #[test]
    fn breakdown_total_matches_cycles() {
        let m = model(1);
        let cfg = GeneratorConfig::default().with_cpus(1);
        let mut p = NullPrefetcher::new();
        let mut stream = Application::OltpDb2.stream(3, &cfg);
        let (r, summary) = m.evaluate(&mut p, &mut stream, 20_000, 8);
        assert_eq!(r.accesses, 20_000);
        assert_eq!(summary.accesses, 20_000);
        assert_eq!(summary.skipped_accesses, 0);
        assert!((r.total_cycles - r.breakdown.total()).abs() < 1e-6);
        let seg_sum: f64 = r.segment_cycles.iter().sum();
        assert!((seg_sum - r.total_cycles).abs() < 1e-6);
        assert!(
            r.total_cycles > r.accesses as f64,
            "more than a cycle per access"
        );
    }

    #[test]
    fn sms_never_slower_on_predictable_workload() {
        let m = model(2);
        let cfg = GeneratorConfig::default().with_cpus(2);
        let mut base = NullPrefetcher::new();
        let mut stream = Application::Sparse.stream(5, &cfg);
        let (base_r, _) = m.evaluate(&mut base, &mut stream, 40_000, 10);
        let mut sms = SmsPrefetcher::new(2, &SmsConfig::default());
        let mut stream = Application::Sparse.stream(5, &cfg);
        let (sms_r, _) = m.evaluate(&mut sms, &mut stream, 40_000, 10);
        assert!(sms_r.total_cycles < base_r.total_cycles);
        assert!(sms_r.breakdown.offchip_read < base_r.breakdown.offchip_read);
    }

    #[test]
    fn store_heavy_query_accumulates_store_buffer_stalls() {
        let m = model(1);
        let cfg = GeneratorConfig::default().with_cpus(1);
        let mut p = NullPrefetcher::new();
        let mut stream = Application::DssQry1.stream(4, &cfg);
        let (q1, _) = m.evaluate(&mut p, &mut stream, 40_000, 8);
        let mut p = NullPrefetcher::new();
        let mut stream = Application::DssQry2.stream(4, &cfg);
        let (q2, _) = m.evaluate(&mut p, &mut stream, 40_000, 8);
        assert!(
            q1.breakdown.store_buffer > q2.breakdown.store_buffer,
            "Qry1 ({}) should stall on stores more than Qry2 ({})",
            q1.breakdown.store_buffer,
            q2.breakdown.store_buffer
        );
    }

    #[test]
    fn busy_time_split_respects_fraction() {
        let m = TimingModel::new(
            HierarchyConfig::scaled(),
            1,
            TimingConfig::default().with_system_busy_fraction(0.25),
        );
        let cfg = GeneratorConfig::default().with_cpus(1);
        let mut p = NullPrefetcher::new();
        let mut stream = Application::WebApache.stream(2, &cfg);
        let (r, _) = m.evaluate(&mut p, &mut stream, 10_000, 4);
        let busy = r.breakdown.user_busy + r.breakdown.system_busy;
        assert!((r.breakdown.system_busy / busy - 0.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "segment")]
    fn zero_segments_rejected() {
        let m = model(1);
        let cfg = GeneratorConfig::default().with_cpus(1);
        let mut p = NullPrefetcher::new();
        let mut stream = Application::Ocean.stream(1, &cfg);
        let _ = m.evaluate(&mut p, &mut stream, 100, 0);
    }
}
